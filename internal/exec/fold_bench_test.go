package exec

import (
	"testing"

	"scanshare/internal/heap/heaptest"
	"scanshare/internal/record"
)

// q1Consumer returns a consumer of Q1's shape over heaptest's lineitem,
// private or folding into a fresh shared state.
func q1Consumer(tb testing.TB, schema *record.Schema, shared bool) *GroupByConsumer {
	tb.Helper()
	c := &GroupByConsumer{Schema: schema, Aggs: []AggSpec{{Kind: AggCount}}}
	for _, name := range heaptest.Q1GroupBy {
		c.GroupBy = append(c.GroupBy, schema.MustOrdinal(name))
	}
	for _, name := range heaptest.Q1Sums {
		c.Aggs = append(c.Aggs, AggSpec{Kind: AggSum, Ordinal: schema.MustOrdinal(name)})
	}
	if shared {
		var err error
		if c.Shared, err = NewSharedAggState(c.GroupBy, c.Aggs, 0); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// BenchmarkGroupByPage folds one lineitem page per iteration with Q1's
// shape, into a private table and into a shared striped one.
func BenchmarkGroupByPage(b *testing.B) {
	schema, pages := heaptest.LineitemPages(b, 2000)
	for _, mode := range []string{"private", "shared"} {
		b.Run(mode, func(b *testing.B) {
			c := q1Consumer(b, schema, mode == "shared")
			b.ReportAllocs()
			b.SetBytes(heaptest.PageSize)
			for i := 0; i < b.N; i++ {
				c.OnPage(i, pages[i%len(pages)]) // a fresh page number: shared state folds a page once
			}
			if _, err := c.Results(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestFoldAllocations pins the fold half of the per-tuple path, so the
// benchmark's allocs_per_page cannot creep back between benchmark runs: a
// page folds in at most 2 allocations, private or shared, and folding into
// a group that exists allocates nothing.
func TestFoldAllocations(t *testing.T) {
	if heaptest.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	schema, pages := heaptest.LineitemPages(t, 500)
	for _, mode := range []string{"private", "shared"} {
		c := q1Consumer(t, schema, mode == "shared")
		pageNo := 0
		fold := func() {
			c.OnPage(pageNo, pages[pageNo%len(pages)])
			pageNo++
		}
		for range pages {
			fold() // warm-up: every group exists, buffers are sized
		}
		if got := testing.AllocsPerRun(100, fold); got > 2 {
			t.Errorf("%s: OnPage allocates %v times per page, want <= 2", mode, got)
		}
		if _, err := c.Results(); err != nil {
			t.Fatal(err)
		}
	}

	tb := newAggTable([]int{2}, []AggSpec{{Kind: AggCount}, {Kind: AggSum, Ordinal: 1}, {Kind: AggMax, Ordinal: 2}})
	row := record.Tuple{record.Int64(1), record.Float64(2), record.String("group")}
	if err := tb.fold(row); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := tb.fold(row); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("fold into an existing group allocates %v times, want 0", got)
	}
}
