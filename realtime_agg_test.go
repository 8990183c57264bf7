package scanshare_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"scanshare"
)

// aggQueries builds N identical GROUP BY queries over tbl plus one filtered
// variant (which can never share state).
func aggQueries(tbl *scanshare.Table, n int) []scanshare.RealtimeAggQuery {
	queries := make([]scanshare.RealtimeAggQuery, 0, n+1)
	for i := 0; i < n; i++ {
		queries = append(queries, scanshare.RealtimeAggQuery{
			Scan:    scanshare.RealtimeScan{Table: tbl, StartDelay: time.Duration(i) * 200 * time.Microsecond},
			GroupBy: []string{"flag"},
			Aggs: []scanshare.RealtimeAggSpec{
				{Kind: scanshare.Count},
				{Kind: scanshare.Sum, Column: "price"},
				{Kind: scanshare.Min, Column: "id"},
				{Kind: scanshare.Max, Column: "id"},
				{Kind: scanshare.Avg, Column: "price"},
			},
		})
	}
	queries = append(queries, scanshare.RealtimeAggQuery{
		Scan:    scanshare.RealtimeScan{Table: tbl},
		GroupBy: []string{"flag"},
		Aggs:    []scanshare.RealtimeAggSpec{{Kind: scanshare.Count}},
		Filter: func(t scanshare.Tuple) bool {
			return t[0].Kind == scanshare.KindInt64 && t[0].I%2 == 0
		},
	})
	return queries
}

func runAggMode(t *testing.T, push, share bool) (*scanshare.RealtimeAggReport, int) {
	t.Helper()
	const queries = 6
	eng, tbl := newEngine(t, 512, 4000)
	if tbl.NumPages() >= 512-32 {
		t.Fatalf("table (%d pages) too large for the resident-pool invariant", tbl.NumPages())
	}
	rep, err := eng.RunRealtimeAggregates(context.Background(),
		scanshare.RealtimeOptions{PushDelivery: push}, aggQueries(tbl, queries), share)
	if err != nil {
		t.Fatalf("push=%v share=%v: %v", push, share, err)
	}
	if len(rep.Rows) != queries+1 {
		t.Fatalf("%d row sets for %d queries", len(rep.Rows), queries+1)
	}
	return rep, tbl.NumPages()
}

// TestRunRealtimeAggregatesParity is the engine-level differential proof: N
// concurrent GROUP BY queries produce byte-identical result sets whether
// they pull privately, push into private tables, or push into one shared
// striped table — and in push mode the N queries issue one physical scan.
func TestRunRealtimeAggregatesParity(t *testing.T) {
	const queries = 6
	pullPrivate, tblPages := runAggMode(t, false, false)
	pushPrivate, _ := runAggMode(t, true, false)
	pushShared, _ := runAggMode(t, true, true)

	// All queries of the same shape agree within a run, and all three
	// execution strategies agree byte for byte.
	ref := scanshare.EncodeAggRows(pullPrivate.Rows[0])
	if len(ref) == 0 {
		t.Fatal("reference result set is empty")
	}
	for name, rep := range map[string]*scanshare.RealtimeAggReport{
		"pull/private": pullPrivate, "push/private": pushPrivate, "push/shared": pushShared,
	} {
		for q := 0; q < queries; q++ {
			if got := scanshare.EncodeAggRows(rep.Rows[q]); !bytes.Equal(got, ref) {
				t.Errorf("%s query %d: result set differs from reference\n got: %q\nwant: %q",
					name, q, got, ref)
			}
		}
	}
	// The filtered query never shares but must agree across modes too.
	filtered := scanshare.EncodeAggRows(pullPrivate.Rows[queries])
	for name, rep := range map[string]*scanshare.RealtimeAggReport{
		"push/private": pushPrivate, "push/shared": pushShared,
	} {
		if got := scanshare.EncodeAggRows(rep.Rows[queries]); !bytes.Equal(got, filtered) {
			t.Errorf("%s filtered query: result set differs from pull reference", name)
		}
	}

	// Shared-state accounting: the identical-shape queries folded into one
	// table; the filtered one stayed private.
	if pushShared.SharedAggFolds == 0 {
		t.Error("push/shared recorded no shared folds")
	}
	if pushShared.Counters.SharedAggFolds != pushShared.SharedAggFolds {
		t.Errorf("collector shared folds %d != report %d",
			pushShared.Counters.SharedAggFolds, pushShared.SharedAggFolds)
	}
	if pullPrivate.SharedAggFolds != 0 || pushPrivate.SharedAggFolds != 0 {
		t.Errorf("private runs recorded shared folds: pull %d push %d",
			pullPrivate.SharedAggFolds, pushPrivate.SharedAggFolds)
	}

	// One physical scan: with the whole table resident the push run's pool
	// misses exactly one lap over the table, however many consumers fed.
	misses := func(rep *scanshare.RealtimeAggReport) int64 {
		var n int64
		for _, p := range rep.Pools {
			n += p.Misses
		}
		return n
	}
	if m := misses(pushShared); m != int64(tblPages) {
		t.Errorf("push/shared pool misses %d, want exactly the table's %d pages", m, tblPages)
	}
	if m := misses(pushPrivate); m != int64(tblPages) {
		t.Errorf("push/private pool misses %d, want exactly the table's %d pages", m, tblPages)
	}
	if mp, ms := misses(pullPrivate), misses(pushShared); ms > mp {
		t.Errorf("push misses %d exceed pull misses %d", ms, mp)
	}

	if pushShared.Counters.BatchesPushed == 0 {
		t.Error("push run recorded no pushed batches")
	}
	if pullPrivate.Counters.BatchesPushed != 0 {
		t.Error("pull run recorded pushed batches")
	}
}

// TestRunRealtimeAggregatesValidation covers the argument errors.
func TestRunRealtimeAggregatesValidation(t *testing.T) {
	eng, tbl := newEngine(t, 64, 200)
	ctx := context.Background()
	if _, err := eng.RunRealtimeAggregates(ctx, scanshare.RealtimeOptions{}, nil, false); err == nil {
		t.Error("no queries accepted")
	}
	if _, err := eng.RunRealtimeAggregates(ctx, scanshare.RealtimeOptions{},
		[]scanshare.RealtimeAggQuery{{GroupBy: []string{"flag"}}}, false); err == nil {
		t.Error("query without table accepted")
	}
	if _, err := eng.RunRealtimeAggregates(ctx, scanshare.RealtimeOptions{},
		[]scanshare.RealtimeAggQuery{{Scan: scanshare.RealtimeScan{Table: tbl}, GroupBy: []string{"nope"}}}, false); err == nil {
		t.Error("unknown group-by column accepted")
	}
	if _, err := eng.RunRealtimeAggregates(ctx, scanshare.RealtimeOptions{},
		[]scanshare.RealtimeAggQuery{{Scan: scanshare.RealtimeScan{Table: tbl}}}, false); err == nil {
		t.Error("query computing nothing accepted")
	}
	if _, err := eng.RunRealtimeAggregates(ctx, scanshare.RealtimeOptions{},
		[]scanshare.RealtimeAggQuery{{
			Scan: scanshare.RealtimeScan{Table: tbl},
			Aggs: []scanshare.RealtimeAggSpec{{Kind: scanshare.Sum, Column: "nope"}},
		}}, false); err == nil {
		t.Error("unknown aggregate column accepted")
	}
}

// TestRunRealtimeAggregatesAggregateKinds: SUM and AVG over a varchar are
// rejected before any scan starts, with an error naming the column and its
// kind; MIN, MAX and COUNT over the same column run.
func TestRunRealtimeAggregatesAggregateKinds(t *testing.T) {
	eng, tbl := newEngine(t, 64, 200)
	for name, tc := range map[string]struct {
		aggs    []scanshare.RealtimeAggSpec
		wantErr bool
	}{
		"sum varchar": {[]scanshare.RealtimeAggSpec{{Kind: scanshare.Count}, {Kind: scanshare.Sum, Column: "flag"}}, true},
		"avg varchar": {[]scanshare.RealtimeAggSpec{{Kind: scanshare.Avg, Column: "flag"}}, true},
		"min max varchar, sum date": {[]scanshare.RealtimeAggSpec{
			{Kind: scanshare.Min, Column: "flag"}, {Kind: scanshare.Max, Column: "flag"},
			{Kind: scanshare.Count, Column: "flag"}, {Kind: scanshare.Sum, Column: "day"}}, false},
	} {
		_, err := eng.RunRealtimeAggregates(context.Background(), scanshare.RealtimeOptions{},
			[]scanshare.RealtimeAggQuery{{Scan: scanshare.RealtimeScan{Table: tbl}, Aggs: tc.aggs}}, false)
		switch {
		case !tc.wantErr && err != nil:
			t.Errorf("%s: %v", name, err)
		case tc.wantErr && err == nil:
			t.Errorf("%s: accepted", name)
		case tc.wantErr && !(strings.Contains(err.Error(), `"flag"`) && strings.Contains(err.Error(), "varchar")):
			t.Errorf("%s: error %q does not name the column and its kind", name, err)
		}
	}
}
