package exec_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"scanshare/internal/disk"
	"scanshare/internal/exec"
	"scanshare/internal/exec/exectest"
	"scanshare/internal/heap"
	"scanshare/internal/record"
)

// fuzzShape draws a schema, a group-by list, an aggregate list and whether
// to filter from the bytes of shape. Ordinals run one past the schema, and
// kinds one past AggMax, so that the errors of a bad shape are compared
// too.
func fuzzShape(shape []byte) (schema *record.Schema, groupBy []int, aggs []exec.AggSpec, filter, raw bool) {
	next := func() byte {
		if len(shape) == 0 {
			return 0
		}
		b := shape[0]
		shape = shape[1:]
		return b
	}
	mode := next()
	filter, raw = mode&1 != 0, mode&2 != 0
	fields := make([]record.Field, 1+int(next()%6))
	for i := range fields {
		fields[i] = record.Field{Name: fmt.Sprint("c", i), Kind: record.Kind(next() % 4)}
	}
	schema = record.MustSchema(fields...)
	ordinal := func() int { return int(next()) % (len(fields) + 1) }
	for n := next() % 4; n > 0; n-- {
		groupBy = append(groupBy, ordinal())
	}
	for n := next() % 5; n > 0; n-- {
		aggs = append(aggs, exec.AggSpec{Kind: exec.AggKind(next() % 6), Ordinal: ordinal()})
	}
	return schema, groupBy, aggs, filter, raw
}

// fuzzPages builds heap pages of schema from data: tuples whose fixed-width
// fields take 8 bytes of it each — any bit pattern, NaNs and -0 among them
// — and whose varchars take a length below 13 and that many bytes.
func fuzzPages(t *testing.T, schema *record.Schema, data []byte) [][]byte {
	dev := disk.MustNew(disk.Model{SeekTime: time.Millisecond, TransferPerPage: time.Millisecond, PageSize: 512}, 0)
	b, err := heap.NewBuilder(dev, "fuzz", schema)
	if err != nil {
		t.Fatal(err)
	}
	tuple := make(record.Tuple, schema.NumFields())
	for len(data) > 0 {
		for i := range tuple {
			switch k := schema.Field(i).Kind; k {
			case record.KindString:
				n := 0
				if len(data) > 0 {
					n, data = int(data[0]%13), data[1:]
				}
				n = min(n, len(data))
				tuple[i], data = record.String(string(data[:n])), data[n:]
			default:
				var w [8]byte
				data = data[copy(w[:], data):]
				u := binary.LittleEndian.Uint64(w[:])
				tuple[i] = record.Value{Kind: k, I: int64(u)}
				if k == record.KindFloat64 {
					tuple[i] = record.Float64(math.Float64frombits(u))
				}
			}
		}
		if err := b.Append(tuple); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		return nil // no tuples
	}
	pages := make([][]byte, tbl.NumPages())
	for i := range pages {
		pid, _ := tbl.PageID(i)
		if pages[i], err = dev.ReadRaw(pid); err != nil {
			t.Fatal(err)
		}
	}
	return pages
}

// keepHalf is the fuzzer's predicate, a function of the tuple's first field.
func keepHalf(t record.Tuple) bool {
	v := t[0]
	return (uint64(v.I)^math.Float64bits(v.F)^uint64(len(v.S)))&1 == 0
}

// FuzzFoldPage holds the page kernel against the tuple-at-a-time fold it
// replaced (exectest): over random schemas, group-by and aggregate lists —
// keys wider than 8 bytes, NaN and ±0 float keys, varchar MIN and MAX —
// with and without a predicate, on well-formed pages and on arbitrary
// bytes, a private consumer and a shared one must produce the oracle's rows
// byte for byte, or fail with its error.
func FuzzFoldPage(f *testing.F) {
	negZero := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Copysign(0, -1)))
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	otherNaN := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())|1)
	floats := bytes.Join([][]byte{negZero, make([]byte, 8), nan, otherNaN, negZero, nan, make([]byte, 8)}, nil)
	// A float key: -0 and +0 and two NaNs are four groups; MIN and MAX.
	f.Add([]byte{0, 1, 1, 1, 0, 3, 0, 0, 3, 0, 4, 0, 2, 0}, floats)
	// Two varchar keys, one of them longer than 8 bytes; varchar MIN/MAX;
	// a predicate.
	words := []byte("\x03abc\x0babcdefghijk\x01z\x0babcdefghijk\x03abc\x01y\x00\x01z")
	f.Add([]byte{1, 2, 2, 2, 2, 0, 1, 2, 0, 0, 3, 1, 4, 1}, words)
	// One varchar key, short and long, with a float sum and a varchar MIN.
	var rows []byte
	for i, w := range []string{"ab", "abcdefghij", "cd", "", "ab", "abcdefghik", "cd"} {
		rows = append(append(append(rows, byte(len(w))), w...), binary.LittleEndian.AppendUint64(nil, math.Float64bits(float64(i)/3))...)
	}
	f.Add([]byte{0, 1, 2, 1, 1, 0, 2, 1, 1, 3, 0}, rows)
	// A date key and an int sum.
	f.Add([]byte{0, 2, 3, 0, 1, 0, 2, 2, 0, 1, 1}, bytes.Repeat([]byte{7, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0}, 9))
	// Arbitrary bytes as a page; an ordinal out of range.
	f.Add([]byte{2, 1, 2, 1, 1, 1, 1, 0}, []byte{3, 0, 0, 0, 1, 0, 2, 0, 5, 'a', 'b'})
	f.Fuzz(func(t *testing.T, shape, data []byte) {
		schema, groupBy, aggs, filter, raw := fuzzShape(shape)
		var pred func(record.Tuple) bool
		if filter {
			pred = keepHalf
		}
		pages := [][]byte{data}
		if !raw {
			pages = fuzzPages(t, schema, data)
		}

		oracle := &exectest.Consumer{Schema: schema, Pred: pred, GroupBy: groupBy, Aggs: aggs}
		private := &exec.GroupByConsumer{Schema: schema, Pred: pred, GroupBy: groupBy, Aggs: aggs}
		for i, page := range pages {
			oracle.OnPage(i, page)
			private.OnPage(i, page)
		}
		want, wantErr := oracle.Results()
		check := func(mode string, rows []record.Tuple, err error) {
			t.Helper()
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%s: error %v, tuple loop %v", mode, err, wantErr)
			}
			if got, want := exec.EncodeRows(rows), exec.EncodeRows(want); err == nil && !bytes.Equal(got, want) {
				t.Fatalf("%s: rows\n%q\ntuple loop\n%q", mode, got, want)
			}
		}
		rows, err := private.Results()
		check("private", rows, err)

		state, err := exec.NewSharedAggState(groupBy, aggs, 3)
		if err != nil {
			return // nothing to compute
		}
		for c := 0; c < 2; c++ {
			shared := &exec.GroupByConsumer{Schema: schema, Pred: pred, GroupBy: groupBy, Aggs: aggs, Shared: state}
			for i, page := range pages {
				shared.OnPage(i, page)
			}
			if _, err = shared.Results(); err != nil || c == 1 {
				break
			}
		}
		if err == nil {
			rows = state.Rows()
		}
		check("shared", rows, err)
	})
}
