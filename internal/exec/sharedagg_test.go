package exec

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"scanshare/internal/record"
)

// sharedAggFixtureRows feeds raw heap pages of the standard fixture table to
// N GroupByConsumers concurrently, as a push stream would.
func sharedAggPages(t *testing.T, f *fixture) [][]byte {
	t.Helper()
	pages := make([][]byte, f.tbl.NumPages())
	for i := range pages {
		pid, err := f.tbl.PageID(i)
		if err != nil {
			t.Fatal(err)
		}
		data, err := f.dev.ReadRaw(pid)
		if err != nil {
			t.Fatal(err)
		}
		pages[i] = data
	}
	return pages
}

// TestSharedAggStateMatchesPrivate: N consumers folding every page into one
// shared striped table produce exactly the rows one private consumer
// computes, the claim map keeps the fold exactly-once, and the encoding is
// byte-identical.
func TestSharedAggStateMatchesPrivate(t *testing.T) {
	f := newFixture(t, 64)
	pages := sharedAggPages(t, f)

	// Group by nothing (one global row) and by the string column.
	for _, tc := range []struct {
		name    string
		groupBy []int
		aggs    []AggSpec
	}{
		{"ungrouped", nil, []AggSpec{{Kind: AggCount}, {Kind: AggSum, Ordinal: 1}, {Kind: AggMin, Ordinal: 0}, {Kind: AggMax, Ordinal: 0}}},
		{"by-string", []int{2}, []AggSpec{{Kind: AggCount}, {Kind: AggAvg, Ordinal: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			private := &GroupByConsumer{Schema: f.tbl.Schema(), GroupBy: tc.groupBy, Aggs: tc.aggs}
			for i, data := range pages {
				private.OnPage(i, data)
			}
			wantRows, err := private.Results()
			if err != nil {
				t.Fatal(err)
			}
			want := EncodeRows(wantRows)

			const consumers = 5
			shared, err := NewSharedAggState(tc.groupBy, tc.aggs, 4)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for c := 0; c < consumers; c++ {
				cons := &GroupByConsumer{Schema: f.tbl.Schema(), GroupBy: tc.groupBy, Aggs: tc.aggs, Shared: shared}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, data := range pages {
						cons.OnPage(i, data)
					}
					if rows, err := cons.Results(); err != nil || rows != nil {
						t.Errorf("shared consumer: rows %v err %v, want nil/nil", rows, err)
					}
				}()
			}
			wg.Wait()

			if got := EncodeRows(shared.Rows()); !bytes.Equal(got, want) {
				t.Errorf("shared rows differ from private rows\n got: %q\nwant: %q", got, want)
			}
			// Exactly-once: the claim map admits each page once, so the
			// fold count equals the table's tuples — not consumers times
			// that.
			if shared.Folds() != f.tbl.NumTuples() {
				t.Errorf("folds %d, want %d (exactly one fold per tuple)", shared.Folds(), f.tbl.NumTuples())
			}
		})
	}
}

// TestSharedAggValidation: a shared state must compute something, and fold
// errors surface.
func TestSharedAggValidation(t *testing.T) {
	if _, err := NewSharedAggState(nil, nil, 0); err == nil {
		t.Error("empty shared state accepted")
	}
	f := newFixture(t, 64)
	pages := sharedAggPages(t, f)
	s, err := NewSharedAggState([]int{5}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := &GroupByConsumer{Schema: f.tbl.Schema(), Pred: func(record.Tuple) bool { return true }, Shared: s}
	c.OnPage(0, pages[0])
	if _, err := c.Results(); err == nil || !strings.Contains(err.Error(), "group-by ordinal 5 out of range") {
		t.Errorf("out-of-range group-by ordinal: error %v", err)
	}
	c = &GroupByConsumer{Schema: f.tbl.Schema(), Shared: s}
	c.OnPage(-1, pages[0])
	if _, err := c.Results(); err == nil {
		t.Error("negative page number accepted")
	}
	other := record.MustSchema(record.Field{Name: "x", Kind: record.KindInt64})
	c = &GroupByConsumer{Schema: other, Shared: s}
	c.OnPage(1, pages[1])
	if _, err := c.Results(); err == nil {
		t.Error("a second schema folded into one shared state")
	}
}

// TestGroupByConsumerBadPage: a page that is not a heap page latches an
// error that Results surfaces; later pages are ignored.
func TestGroupByConsumerBadPage(t *testing.T) {
	f := newFixture(t, 64)
	pages := sharedAggPages(t, f)
	c := &GroupByConsumer{Schema: f.tbl.Schema(), Aggs: []AggSpec{{Kind: AggCount}}}
	c.OnPage(0, []byte{1, 2, 3})
	c.OnPage(1, pages[1])
	if _, err := c.Results(); err == nil {
		t.Error("torn page did not surface through Results")
	}
	if c.Pages() != 0 {
		t.Errorf("consumer folded %d pages after the error", c.Pages())
	}
}
