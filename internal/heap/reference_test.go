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
// last value has the wrong kind (its first fields encode before the error),
// and a row one value short before every good row, so also before each row
// that starts a page; the table the builder makes must be the one the
// reference makes from the good rows alone, byte for byte.
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
	if tbl.NumPages() != len(ref.Pages) || tbl.NumTuples() != ref.Tuples {
		t.Fatalf("%d pages, %d tuples; reference %d, %d", tbl.NumPages(), tbl.NumTuples(), len(ref.Pages), ref.Tuples)
	}
	if len(ref.Pages) < 5 {
		t.Fatalf("only %d pages: no page boundary to cross", len(ref.Pages))
	}
	for i, want := range ref.Pages {
		pid, _ := tbl.PageID(i)
		got, err := dev.ReadRaw(pid)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("page %d differs from the reference", i)
		}
	}
}
