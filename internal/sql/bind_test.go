package sql

import (
	"fmt"
	"strings"
	"testing"

	"scanshare/internal/exec"
	"scanshare/internal/record"
)

// fakeMeta is a Meta for binder tests: a 100-page "lineitem" clustered on
// l_shipdate over days [0, 699].
type fakeMeta struct{}

func (fakeMeta) Name() string  { return "lineitem" }
func (fakeMeta) NumPages() int { return 100 }
func (fakeMeta) Schema() *record.Schema {
	return record.MustSchema(
		record.Field{Name: "l_shipdate", Kind: record.KindDate},
		record.Field{Name: "l_quantity", Kind: record.KindFloat64},
		record.Field{Name: "l_returnflag", Kind: record.KindString},
		record.Field{Name: "l_orderkey", Kind: record.KindInt64},
	)
}
func (fakeMeta) ColumnRange(col string) (record.Value, record.Value, bool) {
	switch col {
	case "l_shipdate":
		return record.Date(0), record.Date(699), true
	case "l_orderkey":
		return record.Int64(1), record.Int64(1000), true
	}
	return record.Value{}, record.Value{}, false
}
func (fakeMeta) Clustered(col string) bool { return col == "l_shipdate" }

// fakeLookup resolves "lineitem" to fakeMeta and "suppliers" to a small
// second table for join tests.
func fakeLookup(table string) (Meta, error) {
	switch table {
	case "lineitem":
		return fakeMeta{}, nil
	case "suppliers":
		return fakeSuppliers{}, nil
	}
	return nil, fmt.Errorf("sql: no table %q", table)
}

// fakeSuppliers is the join partner: s_key matches l_orderkey's kind.
type fakeSuppliers struct{}

func (fakeSuppliers) Name() string  { return "suppliers" }
func (fakeSuppliers) NumPages() int { return 10 }
func (fakeSuppliers) Schema() *record.Schema {
	return record.MustSchema(
		record.Field{Name: "s_key", Kind: record.KindInt64},
		record.Field{Name: "s_name", Kind: record.KindString},
	)
}
func (fakeSuppliers) ColumnRange(string) (record.Value, record.Value, bool) {
	return record.Value{}, record.Value{}, false
}
func (fakeSuppliers) Clustered(string) bool { return false }

func compile(t *testing.T, stmt string) *Spec {
	t.Helper()
	sel, err := Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Compile(sel, fakeLookup)
	if err != nil {
		t.Fatalf("Compile(%q): %v", stmt, err)
	}
	return spec
}

func TestCompileStarFullScan(t *testing.T) {
	spec := compile(t, "SELECT * FROM lineitem")
	if spec.StartFrac != 0 || spec.EndFrac != 1 {
		t.Errorf("range = [%g,%g]", spec.StartFrac, spec.EndFrac)
	}
	if spec.Pred != nil || len(spec.Select) != 0 || len(spec.Aggs) != 0 || spec.HasLimit {
		t.Errorf("spec = %+v", spec)
	}
	if spec.Weight != 1 {
		t.Errorf("weight = %g, want 1 for a bare scan", spec.Weight)
	}
}

func TestCompileAggregatesAndGroups(t *testing.T) {
	spec := compile(t, `SELECT l_returnflag, count(*), sum(l_quantity), min(l_shipdate)
		FROM lineitem GROUP BY l_returnflag`)
	if len(spec.Aggs) != 3 {
		t.Fatalf("aggs = %v", spec.Aggs)
	}
	if spec.Aggs[0].Kind != exec.AggCount || spec.Aggs[0].Column != "" {
		t.Errorf("agg 0 = %+v", spec.Aggs[0])
	}
	if spec.Aggs[1].Kind != exec.AggSum || spec.Aggs[1].Column != "l_quantity" {
		t.Errorf("agg 1 = %+v", spec.Aggs[1])
	}
	if spec.Aggs[2].Kind != exec.AggMin || spec.Aggs[2].Column != "l_shipdate" {
		t.Errorf("agg 2 = %+v", spec.Aggs[2])
	}
	if len(spec.GroupBy) != 1 || spec.GroupBy[0] != "l_returnflag" {
		t.Errorf("group by = %v", spec.GroupBy)
	}
	if len(spec.Select) != 0 {
		t.Errorf("plain select next to aggregates: %v", spec.Select)
	}
}

func TestCompileProjection(t *testing.T) {
	spec := compile(t, "SELECT l_orderkey, l_returnflag FROM lineitem LIMIT 7")
	if len(spec.Select) != 2 || spec.Select[0] != "l_orderkey" {
		t.Errorf("select = %v", spec.Select)
	}
	if !spec.HasLimit || spec.Limit != 7 {
		t.Errorf("limit = %v %v", spec.HasLimit, spec.Limit)
	}
}

func TestCompilePushdownOnClusteredColumn(t *testing.T) {
	// Days [0,699]; predicate selects the last ~100 days -> roughly the
	// last 1/7 of the pages, padded by a page on each side.
	spec := compile(t, "SELECT count(*) FROM lineitem WHERE l_shipdate >= DATE '1993-08-25'")
	if spec.Pred == nil {
		t.Fatal("predicate missing")
	}
	if spec.StartFrac < 0.8 || spec.StartFrac > 0.9 {
		t.Errorf("StartFrac = %g, want ~0.85", spec.StartFrac)
	}
	if spec.EndFrac != 1 {
		t.Errorf("EndFrac = %g, want 1", spec.EndFrac)
	}
}

func TestCompilePushdownBothBounds(t *testing.T) {
	spec := compile(t, `SELECT count(*) FROM lineitem
		WHERE l_shipdate BETWEEN DATE '1992-12-01' AND DATE '1993-02-01' AND l_quantity < 10`)
	if spec.StartFrac <= 0 || spec.EndFrac >= 1 {
		t.Errorf("range = [%g,%g], want interior", spec.StartFrac, spec.EndFrac)
	}
	if spec.EndFrac-spec.StartFrac > 0.2 {
		t.Errorf("range too wide: [%g,%g]", spec.StartFrac, spec.EndFrac)
	}
}

func TestCompileNoPushdownOnUnclusteredColumn(t *testing.T) {
	spec := compile(t, "SELECT count(*) FROM lineitem WHERE l_orderkey >= 900")
	if spec.StartFrac != 0 || spec.EndFrac != 1 {
		t.Errorf("pushdown on unclustered column: [%g,%g]", spec.StartFrac, spec.EndFrac)
	}
	if spec.Pred == nil {
		t.Error("predicate missing")
	}
}

func TestCompileNoPushdownUnderOr(t *testing.T) {
	// OR disjuncts cannot restrict the scan.
	spec := compile(t, `SELECT count(*) FROM lineitem
		WHERE l_shipdate >= DATE '1993-08-25' OR l_quantity > 40`)
	if spec.StartFrac != 0 || spec.EndFrac != 1 {
		t.Errorf("pushdown under OR: [%g,%g]", spec.StartFrac, spec.EndFrac)
	}
}

func TestCompilePushdownFlippedComparison(t *testing.T) {
	spec := compile(t, "SELECT count(*) FROM lineitem WHERE DATE '1993-08-25' <= l_shipdate")
	if spec.StartFrac < 0.8 {
		t.Errorf("flipped comparison not pushed down: start %g", spec.StartFrac)
	}
}

func TestCompileWeightGrowsWithComplexity(t *testing.T) {
	simple := compile(t, "SELECT count(*) FROM lineitem")
	complexQ := compile(t, `SELECT l_returnflag, sum(l_quantity), avg(l_quantity)
		FROM lineitem
		WHERE l_quantity * 2 + 1 > 10 AND NOT l_returnflag = 'R'
		GROUP BY l_returnflag`)
	if complexQ.Weight <= simple.Weight {
		t.Errorf("weights: complex %g <= simple %g", complexQ.Weight, simple.Weight)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := map[string]string{
		"SELECT * FROM orders":                               "no table",
		"SELECT *, l_orderkey FROM lineitem":                 "cannot be combined",
		"SELECT sum(l_quantity + 1) FROM lineitem":           "not supported",
		"SELECT l_orderkey + 1 FROM lineitem":                "computed select items",
		"SELECT ghost FROM lineitem":                         "unknown column",
		"SELECT sum(ghost) FROM lineitem":                    "unknown column",
		"SELECT count(*) FROM lineitem GROUP BY ghost":       "unknown GROUP BY column",
		"SELECT l_orderkey, count(*) FROM lineitem":          "must appear in GROUP BY",
		"SELECT count(*) FROM lineitem WHERE l_quantity + 1": "boolean",
		"SELECT count(*) FROM lineitem WHERE ghost = 1":      "unknown column",
	}
	for stmt, wantSub := range bad {
		sel, err := Parse(stmt)
		if err != nil {
			t.Fatalf("parse %q: %v", stmt, err)
		}
		_, err = Compile(sel, fakeLookup)
		if err == nil {
			t.Errorf("Compile(%q) succeeded", stmt)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("Compile(%q) error %q lacks %q", stmt, err, wantSub)
		}
	}
}

// TestCompileAggregateKinds: SUM and AVG over a varchar are compile errors
// that name the column and its kind (they used to answer 0); COUNT, MIN and
// MAX take any kind, and dates sum as day numbers.
func TestCompileAggregateKinds(t *testing.T) {
	for stmt, wantErr := range map[string][]string{
		"SELECT sum(l_returnflag) FROM lineitem":                                 {`"l_returnflag"`, "varchar", "sum"},
		"SELECT l_orderkey, avg(l_returnflag) FROM lineitem GROUP BY l_orderkey": {`"l_returnflag"`, "varchar", "avg"},
		"SELECT sum(s_name) FROM lineitem JOIN suppliers ON l_orderkey = s_key":  {`"s_name"`, "varchar"},
		"SELECT min(l_returnflag), max(l_returnflag), count(*) FROM lineitem":    nil,
		"SELECT sum(l_shipdate), avg(l_orderkey), sum(l_quantity) FROM lineitem": nil,
	} {
		sel, err := Parse(stmt)
		if err != nil {
			t.Fatalf("parse %q: %v", stmt, err)
		}
		_, err = Compile(sel, fakeLookup)
		if wantErr == nil {
			if err != nil {
				t.Errorf("Compile(%q): %v", stmt, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("Compile(%q) succeeded", stmt)
			continue
		}
		for _, sub := range wantErr {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("Compile(%q) error %q lacks %q", stmt, err, sub)
			}
		}
	}
}

func TestCompileGroupByWithoutAggsIsDistinct(t *testing.T) {
	spec := compile(t, "SELECT l_returnflag FROM lineitem GROUP BY l_returnflag")
	if len(spec.GroupBy) != 1 || len(spec.Aggs) != 0 {
		t.Errorf("spec = %+v", spec)
	}
}

func TestPredicateCompiledFromSpecWorks(t *testing.T) {
	spec := compile(t, "SELECT count(*) FROM lineitem WHERE l_quantity BETWEEN 10 AND 20")
	in := record.Tuple{record.Date(5), record.Float64(15), record.String("N"), record.Int64(1)}
	out := record.Tuple{record.Date(5), record.Float64(25), record.String("N"), record.Int64(1)}
	if !spec.Pred(in) || spec.Pred(out) {
		t.Error("compiled predicate wrong")
	}
}

func TestDegenerateRangeFallsBackToFullScan(t *testing.T) {
	// Contradictory bounds collapse; the binder must not emit an empty or
	// inverted range (the predicate still filters everything out).
	spec := compile(t, `SELECT count(*) FROM lineitem
		WHERE l_shipdate >= DATE '1993-08-25' AND l_shipdate <= DATE '1992-02-01'`)
	if spec.StartFrac != 0 || spec.EndFrac != 1 {
		t.Errorf("degenerate range = [%g,%g], want full scan", spec.StartFrac, spec.EndFrac)
	}
}

func TestCompileJoin(t *testing.T) {
	spec := compile(t, `SELECT s_name, count(*) FROM lineitem JOIN suppliers ON l_orderkey = s_key
		WHERE l_quantity > 5 GROUP BY s_name`)
	if spec.Join == nil {
		t.Fatal("join not compiled")
	}
	if spec.Join.RightFrom != "suppliers" || spec.Join.LeftCol != "l_orderkey" || spec.Join.RightCol != "s_key" {
		t.Errorf("join spec = %+v", spec.Join)
	}
	if spec.StartFrac != 0 || spec.EndFrac != 1 {
		t.Errorf("join must not push ranges down: [%g,%g]", spec.StartFrac, spec.EndFrac)
	}
	// The predicate resolves over the combined schema (l_quantity is
	// ordinal 1 of the left table).
	in := record.Tuple{record.Date(0), record.Float64(9), record.String("N"), record.Int64(7),
		record.Int64(7), record.String("acme")}
	if !spec.Pred(in) {
		t.Error("combined predicate rejected a matching tuple")
	}
	// s_name resolves at combined ordinal 5 through GROUP BY validation
	// (already checked by compile succeeding).
	if len(spec.GroupBy) != 1 || spec.GroupBy[0] != "s_name" {
		t.Errorf("group by = %v", spec.GroupBy)
	}
}

func TestCompileJoinErrors(t *testing.T) {
	for stmt, wantSub := range map[string]string{
		"SELECT count(*) FROM lineitem JOIN ghost ON l_orderkey = s_key":         "no table",
		"SELECT count(*) FROM lineitem JOIN suppliers ON ghost = s_key":          "not in",
		"SELECT count(*) FROM lineitem JOIN suppliers ON l_orderkey = ghost":     "not in",
		"SELECT count(*) FROM lineitem JOIN suppliers ON l_quantity = s_key":     "compares",
		"SELECT count(*) FROM lineitem JOIN suppliers ON l_orderkey = s_name":    "compares",
		"SELECT count(*) FROM lineitem JOIN lineitem ON l_orderkey = l_orderkey": "share column names",
	} {
		sel, err := Parse(stmt)
		if err != nil {
			t.Fatalf("parse %q: %v", stmt, err)
		}
		if _, err := Compile(sel, fakeLookup); err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("Compile(%q) error %v, want %q", stmt, err, wantSub)
		}
	}
}
