package heap_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"scanshare/internal/disk"
	"scanshare/internal/heap"
	"scanshare/internal/heap/heaptest"
	"scanshare/internal/record"
)

// fuzzTable draws a schema, a page size and rows from the fuzzer's bytes.
// shape gives the page size (256 bytes to 8 KiB), the field count (1 to 64)
// and each field's kind; a varchar is low-cardinality (one of four short
// words) or high (0 to 300 bytes of data), so both varchar forms occur.
// data gives the rows: 8 bytes per fixed-width value, any bit pattern, and a
// selector, a length and bytes per varchar.
func fuzzTable(shape, data []byte) (schema *record.Schema, pageSize int, rows []record.Tuple) {
	next := func(b *[]byte) byte {
		if len(*b) == 0 {
			return 0
		}
		c := (*b)[0]
		*b = (*b)[1:]
		return c
	}
	pageSize = 256 << (next(&shape) % 6)
	fields := make([]record.Field, 1+int(next(&shape))%64)
	low := make([]bool, len(fields))
	for i := range fields {
		k := next(&shape)
		fields[i] = record.Field{Name: fmt.Sprint("c", i), Kind: record.Kind(k % 4)}
		low[i] = k&4 != 0
	}
	schema = record.MustSchema(fields...)
	words := []string{"", "A", "MAIL", "REG AIR"}
	for len(data) > 0 && len(rows) < 400 {
		t := make(record.Tuple, len(fields))
		for i, f := range fields {
			switch f.Kind {
			case record.KindString:
				sel := next(&data)
				if low[i] {
					t[i] = record.String(words[sel%4])
					continue
				}
				n := min((int(sel)|int(next(&data))<<8)%301, len(data))
				t[i], data = record.String(string(data[:n])), data[n:]
			default:
				var w [8]byte
				data = data[copy(w[:], data):]
				u := binary.LittleEndian.Uint64(w[:])
				t[i] = record.Value{Kind: f.Kind, I: int64(u)}
				if f.Kind == record.KindFloat64 {
					t[i] = record.Float64(math.Float64frombits(u))
				}
			}
		}
		rows = append(rows, t)
	}
	return schema, pageSize, rows
}

// subset is the column set of schema whose ordinals are the set bits of
// mask, taken mod 64.
func subset(schema *record.Schema, mask uint64) record.Columns {
	cols, _ := record.SelectColumns(schema)
	for ord := 0; ord < schema.NumFields(); ord++ {
		if mask&(1<<(ord%64)) != 0 {
			cols = cols.With(ord)
		}
	}
	return cols
}

// readAll reads page under cols three ways — Tuple by tuple, ForEach, and
// AppendTo into vectors of cols — and returns the rows if the three agree:
// the same rows, or the same error.
func readAll(t *testing.T, cols record.Columns, page []byte) ([]record.Tuple, error) {
	t.Helper()
	v, err := heap.ViewColumns(cols, page)
	if err != nil {
		return nil, err
	}
	var byTuple []record.Tuple
	var tupleErr error
	for i := 0; i < v.NumTuples(); i++ {
		tup, err := v.Tuple(nil, i)
		if err != nil {
			tupleErr = err
			break
		}
		byTuple = append(byTuple, tup)
	}
	var byForEach []record.Tuple
	eachErr := v.ForEach(func(tup record.Tuple) error {
		byForEach = append(byForEach, tup.Clone())
		return nil
	})
	var vec record.Vectors
	vec.Reset(cols)
	vecErr := v.AppendTo(&vec)
	for _, e := range []error{eachErr, vecErr} {
		if fmt.Sprint(e) != fmt.Sprint(tupleErr) {
			t.Fatalf("Tuple fails with %v, ForEach with %v, AppendTo with %v", tupleErr, eachErr, vecErr)
		}
	}
	if tupleErr != nil {
		if vec.Len() != 0 {
			t.Fatalf("a failed AppendTo left %d rows", vec.Len())
		}
		return nil, tupleErr
	}
	if !heaptest.SameRows(byTuple, byForEach) || vec.Len() != len(byTuple) {
		t.Fatalf("Tuple read %d rows, ForEach %d, AppendTo %d, or they differ", len(byTuple), len(byForEach), vec.Len())
	}
	for r, row := range byTuple {
		for ord, val := range row {
			want := record.Value{Kind: val.Kind}
			if cols.Reads(ord) {
				want = vec.Value(ord, r)
			}
			if !heaptest.SameValue(val, want) {
				t.Fatalf("row %d field %d: Tuple %#v, vectors %#v", r, ord, val, want)
			}
		}
	}
	return byTuple, nil
}

// FuzzDecodePage builds pages of random schemas and rows with heap.Builder
// and holds every read of them to the row oracle: the rows RefLoad puts on
// its row pages, page for page (heaptest.CheckRowBoundaries), read back
// through Tuple, ForEach and AppendTo, whole and through a subset of the
// columns. Arbitrary bytes read as a page must never panic, never view a
// byte outside the page, and fail, if at all, the same way on every path.
func FuzzDecodePage(f *testing.F) {
	// Lineitem's layout: six fixed-width fields, two low-cardinality
	// varchars, a date and a high-cardinality varchar, on 2 KiB pages.
	f.Add([]byte{3, 9, 0, 0, 1, 1, 1, 1, 6, 6, 3, 2}, []byte(strings.Repeat("0123456789abcdefghijklmnopqrstuvwxyz\x05", 400)), uint64(0b1111000011))
	// 64 low-cardinality varchars on 1 KiB pages: fewer tuples than
	// columns, and pages split.
	f.Add(append([]byte{2, 63}, bytes.Repeat([]byte{6}, 64)...), bytes.Repeat([]byte{0, 1, 2, 3, 1, 2}, 400), ^uint64(0))
	// Two long varchars on 256-byte pages: one tuple a page.
	f.Add([]byte{0, 2, 0, 2, 2}, []byte(strings.Repeat("\x01\x00\x00\x00\x00\x00\x00\x00\x64\x00"+strings.Repeat("y", 100)+"\x64\x00"+strings.Repeat("z", 100), 6)), uint64(2))
	// Bytes that are no page.
	f.Add([]byte{1, 1, 6, 0}, []byte{2, 0, 3, 0, 8, 0, 1, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0, 0}, uint64(1))
	f.Fuzz(func(t *testing.T, shape, data []byte, mask uint64) {
		schema, pageSize, rows := fuzzTable(shape, data)
		cols := subset(schema, mask)

		// Arbitrary bytes as a page, in a buffer of exactly their size. A
		// varchar read from it views the page: flipping the page's bits
		// flips the varchar's.
		page := append([]byte(nil), data...)[:len(data):len(data)]
		for _, c := range []record.Columns{record.AllColumns(schema), cols} {
			got, err := readAll(t, c, page)
			if err != nil {
				continue
			}
			var views, copies []string
			for _, row := range got {
				for _, v := range row {
					if v.Kind == record.KindString {
						views, copies = append(views, v.S), append(copies, strings.Clone(v.S))
					}
				}
			}
			flip(page)
			for i, s := range views {
				if s != string(flip([]byte(copies[i]))) {
					t.Fatalf("varchar %q does not view the page", copies[i])
				}
			}
			flip(page)
		}

		// Pages the builder lays out, held to the row oracle.
		model := disk.Model{SeekTime: time.Millisecond, TransferPerPage: time.Millisecond, PageSize: pageSize}
		dev := disk.MustNew(model, 0)
		b, err := heap.NewBuilder(dev, "fuzz", schema)
		if err != nil {
			t.Fatal(err)
		}
		var kept []record.Tuple
		for _, row := range rows {
			if b.Append(row) == nil {
				kept = append(kept, row)
			}
		}
		tbl, err := b.Finish()
		if len(kept) == 0 {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		ref, err := heaptest.RefLoad(disk.MustNew(model, 0), schema, func(add func(record.Tuple) error) error {
			for _, row := range kept {
				if err := add(row); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		pages := make([][]byte, tbl.NumPages())
		for i := range pages {
			pid, _ := tbl.PageID(i)
			if pages[i], err = dev.ReadRaw(pid); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := heaptest.CheckRowBoundaries(schema, pageSize, pages, ref); err != nil {
			t.Fatal(err)
		}
		at := 0
		for i, page := range pages {
			all, err := readAll(t, record.AllColumns(schema), page)
			if err != nil {
				t.Fatalf("page %d: %v", i, err)
			}
			some, err := readAll(t, cols, page)
			if err != nil {
				t.Fatalf("page %d under %v: %v", i, mask, err)
			}
			if !heaptest.SameRows(all, kept[at:at+len(all)]) {
				t.Fatalf("page %d does not read back rows %d..%d", i, at, at+len(all))
			}
			for r := range some {
				for ord := range some[r] {
					if cols.Reads(ord) && !heaptest.SameValue(some[r][ord], all[r][ord]) {
						t.Fatalf("page %d row %d field %d under %v: %#v, want %#v", i, r, ord, mask, some[r][ord], all[r][ord])
					}
				}
			}
			at += len(all)
		}
	})
}

// flip flips every bit of b and returns it.
func flip(b []byte) []byte {
	for i := range b {
		b[i] ^= 0xFF
	}
	return b
}
