package scanshare

import (
	"slices"
	"strings"
	"testing"

	"scanshare/internal/exec"
	"scanshare/internal/heap/heaptest"
)

// planEngine loads a small lineitem-shaped table, clustered on l_shipdate,
// and a part table to join it with.
func planEngine(t *testing.T) *Engine {
	t.Helper()
	eng := MustNew(Config{BufferPoolPages: 16})
	_, err := eng.LoadTable("lineitem", MustSchema(
		Field{Name: "l_partkey", Kind: KindInt64},
		Field{Name: "l_quantity", Kind: KindFloat64},
		Field{Name: "l_extendedprice", Kind: KindFloat64},
		Field{Name: "l_discount", Kind: KindFloat64},
		Field{Name: "l_shipmode", Kind: KindString},
		Field{Name: "l_shipdate", Kind: KindDate},
	), func(add func(Tuple) error) error {
		for i := 0; i < 500; i++ {
			err := add(Tuple{Int64(int64(i % 20)), Float64(float64(i % 50)), Float64(float64(i)), Float64(float64(i%11) / 100),
				String([]string{"AIR", "SHIP"}[i%2]), Date(int64(i))})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.LoadTable("part", MustSchema(
		Field{Name: "p_partkey", Kind: KindInt64},
		Field{Name: "p_brand", Kind: KindString},
	), func(add func(Tuple) error) error {
		for i := 0; i < 20; i++ {
			if err := add(Tuple{Int64(int64(i)), String([]string{"b1", "b2"}[i%2])}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// planScans returns the table scans of a plan, left to right.
func planScans(op exec.Operator) []*exec.TableScan {
	switch o := op.(type) {
	case *exec.TableScan:
		return []*exec.TableScan{o}
	case *exec.Filter:
		return planScans(o.Input)
	case *exec.Project:
		return planScans(o.Input)
	case *exec.Aggregate:
		return planScans(o.Input)
	case *exec.Sort:
		return planScans(o.Input)
	case *exec.Limit:
		return planScans(o.Input)
	case *exec.HashJoin:
		return append(planScans(o.Left), planScans(o.Right)...)
	}
	return nil
}

// scanReads names the columns a planned scan decodes, or returns nil for a
// scan left to decode every column.
func scanReads(t *testing.T, q *Query) [][]string {
	t.Helper()
	plan, err := q.plan(false)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	for _, scan := range planScans(plan) {
		cols := scan.Columns
		if cols.Schema() == nil {
			out = append(out, nil)
			continue
		}
		names := []string{}
		for i := 0; i < cols.Schema().NumFields(); i++ {
			if cols.Reads(i) {
				names = append(names, cols.Schema().Field(i).Name)
			}
		}
		out = append(out, names)
	}
	return out
}

// TestSQLScanReadsOnlyWhatTheQueryReads: a compiled WHERE declares the columns
// it names, so the scan decodes those and the aggregate's input only. A
// join's scans decode every column.
func TestSQLScanReadsOnlyWhatTheQueryReads(t *testing.T) {
	eng := planEngine(t)
	got := scanReads(t, eng.MustSQL("SELECT sum(l_extendedprice) FROM lineitem WHERE l_discount BETWEEN 0.05 AND 0.07"))
	if want := [][]string{{"l_extendedprice", "l_discount"}}; !slices.EqualFunc(got, want, slices.Equal) {
		t.Errorf("scan reads %q, want %q", got, want)
	}
	got = scanReads(t, eng.MustSQL(`SELECT p_brand, count(*) FROM lineitem JOIN part ON l_partkey = p_partkey
		WHERE l_discount > 0.05 GROUP BY p_brand`))
	if len(got) != 2 || got[0] != nil || got[1] != nil {
		t.Errorf("join scans read %q, want every column on both sides", got)
	}
}

// TestScanColumns: what the builder's scan decodes, per query shape.
func TestScanColumns(t *testing.T) {
	eng := planEngine(t)
	tbl, err := eng.Lookup("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	cheap := func(Tuple) bool { return true }
	for _, tc := range []struct {
		name string
		q    *Query
		want []string // nil: every column
	}{
		{"grouped aggregate", NewQuery(tbl).GroupBy("l_shipmode").Sum("l_quantity").CountAll(),
			[]string{"l_quantity", "l_shipmode"}},
		{"count under a declared predicate", NewQuery(tbl).Where(cheap, "l_discount").CountAll(),
			[]string{"l_discount"}},
		{"projection and predicate", NewQuery(tbl).Where(cheap, "l_shipdate").Select("l_partkey", "l_discount"),
			[]string{"l_partkey", "l_discount", "l_shipdate"}},
		{"opaque predicate", NewQuery(tbl).Where(cheap).Sum("l_quantity"), nil},
		{"whole rows", NewQuery(tbl).Where(cheap, "l_discount"), nil},
	} {
		if got := scanReads(t, tc.q); len(got) != 1 || !slices.Equal(got[0], tc.want) {
			t.Errorf("%s: scan reads %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestPlanColumnSetsDoNotAllocate: declaring a predicate's reads and
// compiling the scan's column set cost no allocation, so a query built per
// stream item adds none per page.
func TestPlanColumnSetsDoNotAllocate(t *testing.T) {
	if heaptest.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	eng := planEngine(t)
	tbl, err := eng.Lookup("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	pred := func(t Tuple) bool { return t[3].F > 0.05 && t[1].F < 24 }
	q := NewQuery(tbl).Sum("l_extendedprice")
	if got := testing.AllocsPerRun(100, func() { q.Where(pred, "l_discount", "l_quantity") }); got != 0 {
		t.Errorf("Where with reads allocates %v times, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := q.scanColumns(); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("compiling the scan's columns allocates %v times, want 0", got)
	}
}

func TestWhereReadsUnknownColumn(t *testing.T) {
	eng := planEngine(t)
	tbl, err := eng.Lookup("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery(tbl).Where(func(Tuple) bool { return true }, "l_nope").CountAll()
	if _, err := eng.Run(Baseline, []Job{{Query: q}}); err == nil || !strings.Contains(err.Error(), "l_nope") {
		t.Errorf("unknown column in Where's reads: %v", err)
	}
}
