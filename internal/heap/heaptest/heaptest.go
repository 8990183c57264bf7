// Package heaptest builds real heap pages for the tests and benchmarks of the
// per-tuple path (page decode in heap, the fold in exec), so both layers are
// measured and checked on the same bytes. It also keeps the reference table
// load, RefLoad, that the engine's loader is checked against.
package heaptest

import (
	"testing"
	"time"

	"scanshare/internal/disk"
	"scanshare/internal/heap"
	"scanshare/internal/record"
)

// PageSize is the page size LineitemPages builds with, the engine's default.
const PageSize = 8192

// Q1GroupBy, Q1Sums and the COUNT(*) beside them are the shape of the
// workload's Q1 over LineitemPages' schema: 4 of its 10 columns are read.
var (
	Q1GroupBy = []string{"l_returnflag", "l_linestatus"}
	Q1Sums    = []string{"l_quantity", "l_extendedprice"}
)

// LineitemPages returns the schema and the heap pages of a table with the
// column layout of the workload's lineitem — a six-field fixed-width prefix,
// two one-byte varchars, a date and a longer varchar — filled with rows
// deterministic rows. The pages are the device's own slices: treat them as
// immutable, or copy.
func LineitemPages(tb testing.TB, rows int) (*record.Schema, [][]byte) {
	tb.Helper()
	schema := record.MustSchema(
		record.Field{Name: "l_orderkey", Kind: record.KindInt64},
		record.Field{Name: "l_partkey", Kind: record.KindInt64},
		record.Field{Name: "l_quantity", Kind: record.KindFloat64},
		record.Field{Name: "l_extendedprice", Kind: record.KindFloat64},
		record.Field{Name: "l_discount", Kind: record.KindFloat64},
		record.Field{Name: "l_tax", Kind: record.KindFloat64},
		record.Field{Name: "l_returnflag", Kind: record.KindString},
		record.Field{Name: "l_linestatus", Kind: record.KindString},
		record.Field{Name: "l_shipdate", Kind: record.KindDate},
		record.Field{Name: "l_shipmode", Kind: record.KindString},
	)
	dev := disk.MustNew(disk.Model{SeekTime: time.Millisecond, TransferPerPage: 100 * time.Microsecond, PageSize: PageSize}, 0)
	b, err := heap.NewBuilder(dev, "lineitem", schema)
	if err != nil {
		tb.Fatal(err)
	}
	flags := []string{"A", "N", "R"}
	modes := []string{"AIR", "MAIL", "RAIL", "SHIP", "TRUCK", "REG AIR", "FOB"}
	for i := 0; i < rows; i++ {
		status := "F"
		if i%3 == 1 && i%2 == 0 {
			status = "O"
		}
		err := b.Append(record.Tuple{
			record.Int64(int64(i / 4)),
			record.Int64(int64(i * 7 % 2000)),
			record.Float64(float64(1 + i%50)),
			record.Float64(float64(900+i%1000) * 1.5),
			record.Float64(float64(i%11) / 100),
			record.Float64(float64(i%9) / 100),
			record.String(flags[i%3]),
			record.String(status),
			record.Date(int64(i / 16)),
			record.String(modes[i%len(modes)]),
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	pages := make([][]byte, tbl.NumPages())
	for i := range pages {
		pid, err := tbl.PageID(i)
		if err != nil {
			tb.Fatal(err)
		}
		if pages[i], err = dev.ReadRaw(pid); err != nil {
			tb.Fatal(err)
		}
	}
	return schema, pages
}
