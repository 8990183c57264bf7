package heap_test

import (
	"testing"

	"scanshare/internal/heap"
	"scanshare/internal/heap/heaptest"
	"scanshare/internal/record"
)

// q1Columns is the column set Q1 reads of heaptest's lineitem.
func q1Columns(tb testing.TB, schema *record.Schema) record.Columns {
	tb.Helper()
	var ords []int
	for _, name := range append(append([]string(nil), heaptest.Q1GroupBy...), heaptest.Q1Sums...) {
		ords = append(ords, schema.MustOrdinal(name))
	}
	cols, err := record.SelectColumns(schema, ords...)
	if err != nil {
		tb.Fatal(err)
	}
	return cols
}

// BenchmarkDecodePage decodes every tuple of a lineitem page: all ten
// columns, and the four Q1 reads, into tuples; and the four Q1 reads into
// column vectors, the aggregation kernel's decode.
func BenchmarkDecodePage(b *testing.B) {
	schema, pages := heaptest.LineitemPages(b, 2000)
	for _, bc := range []struct {
		name string
		cols record.Columns
	}{
		{"all", record.AllColumns(schema)},
		{"q1_columns", q1Columns(b, schema)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(heaptest.PageSize)
			for i := 0; i < b.N; i++ {
				v, err := heap.ViewColumns(bc.cols, pages[i%len(pages)])
				if err != nil {
					b.Fatal(err)
				}
				if err := v.ForEach(func(record.Tuple) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("q1_vectors", func(b *testing.B) {
		cols := q1Columns(b, schema)
		var vec record.Vectors
		b.ReportAllocs()
		b.SetBytes(heaptest.PageSize)
		for i := 0; i < b.N; i++ {
			v, err := heap.ViewColumns(cols, pages[i%len(pages)])
			if err != nil {
				b.Fatal(err)
			}
			vec.Reset(cols)
			if err := v.AppendTo(&vec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestForEachDoesNotAllocate pins the decode half of the per-tuple path:
// walking a page allocates nothing once the scratch pool is warm — varchars
// are views and the decode buffer is recycled.
func TestForEachDoesNotAllocate(t *testing.T) {
	if heaptest.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	schema, pages := heaptest.LineitemPages(t, 500)
	for name, cols := range map[string]record.Columns{
		"all":        record.AllColumns(schema),
		"q1_columns": q1Columns(t, schema),
	} {
		walk := func() {
			v, err := heap.ViewColumns(cols, pages[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := v.ForEach(func(record.Tuple) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		walk() // warm-up
		if got := testing.AllocsPerRun(100, walk); got != 0 {
			t.Errorf("%s: ForEach allocates %v times per page, want 0", name, got)
		}
	}
}
