package exec

import (
	"strings"
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
// benchmark's allocs_per_page cannot creep back between benchmark runs: once
// every group exists and the buffers are sized, a page folds without
// allocating, private or shared, with a key that packs into a uint64 or one
// that does not, and so does a tuple pulled through the operators.
func TestFoldAllocations(t *testing.T) {
	if heaptest.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	schema, pages := heaptest.LineitemPages(t, 500)
	for _, mode := range []string{"private", "shared", "private wide", "shared wide"} {
		c := q1Consumer(t, schema, strings.HasPrefix(mode, "shared"))
		if strings.HasSuffix(mode, "wide") {
			// A key whose encoding does not pack into a uint64.
			c.GroupBy = []int{schema.MustOrdinal("l_shipmode"), schema.MustOrdinal("l_returnflag")}
			if c.Shared != nil {
				var err error
				if c.Shared, err = NewSharedAggState(c.GroupBy, c.Aggs, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		pageNo := 0
		fold := func() {
			c.OnPage(pageNo, pages[pageNo%len(pages)])
			pageNo++
		}
		for range pages {
			fold() // warm-up: every group exists, buffers are sized
		}
		if got := testing.AllocsPerRun(100, fold); got != 0 {
			t.Errorf("%s: OnPage allocates %v times per page, want 0", mode, got)
		}
		if _, err := c.Results(); err != nil {
			t.Fatal(err)
		}
	}

	row := record.Tuple{record.Int64(1), record.Float64(2), record.String("group")}
	schema, err := tupleSchema(row)
	if err != nil {
		t.Fatal(err)
	}
	var k kernel
	k.init(compileShape(schema, []int{2}, []AggSpec{{Kind: AggCount}, {Kind: AggSum, Ordinal: 1}, {Kind: AggMax, Ordinal: 2}}), nil)
	tb := &groupTable{sh: k.sh}
	fold := func() {
		if err := k.loadTuple(row); err != nil {
			t.Fatal(err)
		}
		if err := k.fold(tb); err != nil {
			t.Fatal(err)
		}
	}
	fold()
	if got := testing.AllocsPerRun(100, fold); got != 0 {
		t.Errorf("a pulled tuple folding into an existing group allocates %v times, want 0", got)
	}
}

// TestConsumerLifetimeAllocations pins what a consumer costs over its whole
// life — built, 17 lineitem pages folded, its rows taken — because the
// benchmark's rt_* workloads build 64 consumers per repetition and this is
// about half their allocs_per_page. The ceilings are the tuple-at-a-time
// fold's counts, measured on the same pages: 43 private, 60 shared (71 with
// the shared rows merged).
func TestConsumerLifetimeAllocations(t *testing.T) {
	if heaptest.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	schema, pages := heaptest.LineitemPages(t, 2000)
	if len(pages) != 17 {
		t.Fatalf("%d lineitem pages, want 17", len(pages))
	}
	for _, tc := range []struct {
		name   string
		shared bool
		rows   bool
		most   float64
	}{
		{"private", false, false, 43},
		{"shared", true, false, 60},
		{"shared rows", true, true, 71},
	} {
		got := testing.AllocsPerRun(20, func() {
			c := q1Consumer(t, schema, tc.shared)
			for i, page := range pages {
				c.OnPage(i, page)
			}
			if _, err := c.Results(); err != nil {
				t.Fatal(err)
			}
			if tc.rows {
				c.Shared.Rows()
			}
		})
		t.Logf("%s: %v allocations", tc.name, got)
		if got > tc.most {
			t.Errorf("%s: a consumer's lifetime allocates %v times, want <= %v", tc.name, got, tc.most)
		}
	}
}
