package heap_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"scanshare/internal/disk"
	"scanshare/internal/heap"
	"scanshare/internal/heap/heaptest"
	"scanshare/internal/record"
)

// TestAppendErrorLeavesBuilderUnchanged rejects an oversized row, a row whose
// last value has the wrong kind, and a row one value short before every good
// row, so also before each row that starts a page; the table the builder
// makes must be the one it makes from the good rows alone, byte for byte,
// and hold the rows the reference puts on each of its row pages.
func TestAppendErrorLeavesBuilderUnchanged(t *testing.T) {
	schema := record.MustSchema(
		record.Field{Name: "k", Kind: record.KindInt64},
		record.Field{Name: "v", Kind: record.KindString},
		record.Field{Name: "d", Kind: record.KindDate},
	)
	model := disk.Model{SeekTime: time.Millisecond, TransferPerPage: 100 * time.Microsecond, PageSize: 256}
	good := make([]record.Tuple, 40)
	for i := range good {
		good[i] = record.Tuple{record.Int64(int64(i)), record.String(strings.Repeat("v", 10+i*7%90)), record.Date(int64(i))}
	}
	bad := []record.Tuple{
		{record.Int64(-1), record.String(strings.Repeat("o", 300)), record.Date(0)},
		{record.Int64(-2), record.String("wrong kind last"), record.Int64(0)},
		{record.Int64(-3), record.String("short")},
	}

	ref, err := heaptest.RefLoad(disk.MustNew(model, 0), schema, func(add func(record.Tuple) error) error {
		for _, row := range good {
			if err := add(row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	build := func(bad []record.Tuple) [][]byte {
		dev := disk.MustNew(model, 0)
		b, err := heap.NewBuilder(dev, "t", schema)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range good {
			for _, r := range bad {
				if err := b.Append(r); err == nil {
					t.Fatalf("row %d: bad row %v accepted", i, r)
				}
			}
			if err := b.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		tbl, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if tbl.NumTuples() != ref.Tuples {
			t.Fatalf("%d tuples, reference %d", tbl.NumTuples(), ref.Tuples)
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
	pages, clean := build(bad), build(nil)
	if len(ref.Pages) < 5 {
		t.Fatalf("only %d pages: no page boundary to cross", len(ref.Pages))
	}
	if len(pages) != len(clean) {
		t.Fatalf("%d pages, %d from the good rows alone", len(pages), len(clean))
	}
	for i := range pages {
		if !bytes.Equal(pages[i], clean[i]) {
			t.Errorf("page %d differs from the one built from the good rows alone", i)
		}
	}
	if _, _, err := heaptest.CheckRowBoundaries(schema, model.PageSize, pages, ref); err != nil {
		t.Fatal(err)
	}
}
