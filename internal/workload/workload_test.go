package workload

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"scanshare"
)

func testEngine(t *testing.T, poolPages int) *scanshare.Engine {
	t.Helper()
	return scanshare.MustNew(scanshare.Config{
		BufferPoolPages: poolPages,
		Sharing:         scanshare.SharingConfig{MinSharePages: 4},
	})
}

func loadSmall(t *testing.T) (*scanshare.Engine, *DB) {
	t.Helper()
	eng := testEngine(t, 64)
	db, err := Load(eng, GenConfig{ScaleFactor: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return eng, db
}

func TestLoadValidation(t *testing.T) {
	eng := testEngine(t, 64)
	if _, err := Load(eng, GenConfig{ScaleFactor: 0}); err == nil {
		t.Error("zero scale factor accepted")
	}
	if _, err := Load(eng, GenConfig{ScaleFactor: -1}); err == nil {
		t.Error("negative scale factor accepted")
	}
}

func TestLoadShapes(t *testing.T) {
	_, db := loadSmall(t)
	if db.Lineitem.NumTuples() != 4000 {
		t.Errorf("lineitem rows = %d, want 4000 at sf 0.1", db.Lineitem.NumTuples())
	}
	if db.Orders.NumTuples() != 1000 || db.Part.NumTuples() != 200 || db.Customer.NumTuples() != 150 {
		t.Errorf("table rows = %d/%d/%d", db.Orders.NumTuples(), db.Part.NumTuples(), db.Customer.NumTuples())
	}
	// lineitem dominates, as in TPC-H.
	if db.Lineitem.NumPages() <= db.Orders.NumPages() {
		t.Errorf("lineitem (%d pages) not larger than orders (%d)", db.Lineitem.NumPages(), db.Orders.NumPages())
	}
	if got := db.TotalPages(); got != db.Lineitem.NumPages()+db.Orders.NumPages()+db.Part.NumPages()+db.Customer.NumPages() {
		t.Errorf("TotalPages = %d", got)
	}
	if len(db.Tables()) != 4 {
		t.Error("Tables() wrong length")
	}
}

func TestGenerationIsDeterministic(t *testing.T) {
	eng1, db1 := loadSmall(t)
	eng2, db2 := loadSmall(t)
	q1 := scanshare.NewQuery(db1.Lineitem).GroupBy("l_returnflag").Sum("l_extendedprice")
	q2 := scanshare.NewQuery(db2.Lineitem).GroupBy("l_returnflag").Sum("l_extendedprice")
	r1, err := eng1.Run(scanshare.Baseline, []scanshare.Job{{Query: q1}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng2.Run(scanshare.Baseline, []scanshare.Job{{Query: q2}})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(r1.Results[0].Rows) != fmt.Sprint(r2.Results[0].Rows) {
		t.Error("same seed produced different data")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	eng := testEngine(t, 64)
	db1, err := Load(eng, GenConfig{ScaleFactor: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng2 := testEngine(t, 64)
	db2, err := Load(eng2, GenConfig{ScaleFactor: 0.05, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := func(db *DB, e *scanshare.Engine) string {
		r, err := e.Run(scanshare.Baseline, []scanshare.Job{
			{Query: scanshare.NewQuery(db.Lineitem).Sum("l_extendedprice")},
		})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(r.Results[0].Rows)
	}
	if q(db1, eng) == q(db2, eng2) {
		t.Error("different seeds produced identical sums")
	}
}

func TestLineitemIsDateClustered(t *testing.T) {
	eng, db := loadSmall(t)
	// Scanning the hot range must only return hot-year dates.
	q := scanshare.NewQuery(db.Lineitem).Range(HotFrac, 1).Select("l_shipdate")
	rep, err := eng.Run(scanshare.Baseline, []scanshare.Job{{Query: q}})
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Results[0].Rows
	if len(rows) == 0 {
		t.Fatal("hot range empty")
	}
	// Allow page-boundary slop: the first page of the range may begin
	// slightly before the cutoff.
	slop := int64(30)
	for _, row := range rows {
		if row[0].I < HotStartDay-slop {
			t.Fatalf("hot-range scan returned day %d (< %d)", row[0].I, HotStartDay)
		}
	}
}

func TestTemplatesCoverageAndValidity(t *testing.T) {
	templates := Templates()
	if len(templates) != 22 {
		t.Fatalf("battery has %d templates, want 22", len(templates))
	}
	names := map[string]bool{}
	perTable := map[TableKey]int{}
	hotCount := 0
	for _, tpl := range templates {
		if names[tpl.Name] {
			t.Errorf("duplicate template name %q", tpl.Name)
		}
		names[tpl.Name] = true
		if tpl.Description == "" {
			t.Errorf("%s has no description", tpl.Name)
		}
		if tpl.Weight <= 0 {
			t.Errorf("%s has non-positive weight", tpl.Name)
		}
		if tpl.StartFrac < 0 || tpl.EndFrac > 1 || tpl.StartFrac >= tpl.EndFrac {
			t.Errorf("%s has invalid range [%g,%g)", tpl.Name, tpl.StartFrac, tpl.EndFrac)
		}
		perTable[tpl.Table]++
		if tpl.StartFrac > 0 {
			hotCount++
		}
	}
	if perTable[Lineitem] < 8 {
		t.Errorf("only %d lineitem queries; scans should concentrate on the big table", perTable[Lineitem])
	}
	if hotCount < 5 {
		t.Errorf("only %d range-restricted queries; the hot-spot scenario needs more", hotCount)
	}
}

func TestEveryTemplateExecutes(t *testing.T) {
	eng, db := loadSmall(t)
	for _, tpl := range Templates() {
		rep, err := eng.Run(scanshare.Baseline, []scanshare.Job{{Query: tpl.Query(db)}})
		if err != nil {
			t.Fatalf("%s: %v", tpl.Name, err)
		}
		res := rep.Results[0]
		if res.Name != tpl.Name {
			t.Errorf("%s: reported as %q", tpl.Name, res.Name)
		}
		if res.TuplesRead == 0 {
			t.Errorf("%s read no tuples", tpl.Name)
		}
	}
}

func TestQ1IsCPUBoundQ6IsIOBound(t *testing.T) {
	eng, db := loadSmall(t)
	rep, err := eng.Run(scanshare.Baseline, []scanshare.Job{{Query: Q1(db)}})
	if err != nil {
		t.Fatal(err)
	}
	q1 := rep.Results[0]
	if q1.CPU <= q1.IOWait {
		t.Errorf("q1 should be CPU-bound: cpu=%v io=%v", q1.CPU, q1.IOWait)
	}
	eng2, db2 := loadSmall(t)
	rep, err = eng2.Run(scanshare.Baseline, []scanshare.Job{{Query: Q6(db2)}})
	if err != nil {
		t.Fatal(err)
	}
	q6 := rep.Results[0]
	if q6.IOWait <= q6.CPU {
		t.Errorf("q6 should be I/O-bound on a cold pool: cpu=%v io=%v", q6.CPU, q6.IOWait)
	}
}

func TestStreamOrders(t *testing.T) {
	n := len(Templates())
	seen := map[string]bool{}
	for s := 0; s < 5; s++ {
		order := StreamOrder(s)
		if len(order) != n {
			t.Fatalf("stream %d order has %d entries", s, len(order))
		}
		present := make([]bool, n)
		for _, idx := range order {
			if idx < 0 || idx >= n || present[idx] {
				t.Fatalf("stream %d order invalid: %v", s, order)
			}
			present[idx] = true
		}
		key := fmt.Sprint(order)
		if seen[key] {
			t.Errorf("streams share a permutation: %v", order)
		}
		seen[key] = true
		if fmt.Sprint(StreamOrder(s)) != key {
			t.Errorf("stream %d order not deterministic", s)
		}
	}
}

func TestThroughputStreams(t *testing.T) {
	_, db := loadSmall(t)
	streams := ThroughputStreams(db, 3)
	if len(streams) != 3 {
		t.Fatalf("got %d streams", len(streams))
	}
	for s, items := range streams {
		if len(items) != 22 {
			t.Errorf("stream %d has %d items", s, len(items))
		}
		for _, item := range items {
			if item.Query == nil {
				t.Fatalf("stream %d has nil query", s)
			}
		}
	}
}

func TestStaggeredJobs(t *testing.T) {
	_, db := loadSmall(t)
	jobs := StaggeredJobs(Q6(db), 3, 10*time.Second)
	if len(jobs) != 3 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	for i, j := range jobs {
		if j.Start != time.Duration(i)*10*time.Second || j.Stream != i {
			t.Errorf("job %d = %+v", i, j)
		}
	}
}

func TestBufferPoolForTracksRealSize(t *testing.T) {
	eng := scanshare.MustNew(scanshare.Config{BufferPoolPages: 10})
	cfg := GenConfig{ScaleFactor: 0.25, Seed: 7}
	db, err := Load(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	est := BufferPoolFor(cfg, 8192, 1.0) // estimate of the whole DB
	real := db.TotalPages()
	ratio := float64(est) / float64(real)
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("BufferPoolFor estimate %d vs real %d pages (ratio %.2f)", est, real, ratio)
	}
	if BufferPoolFor(cfg, 0, 0.0001) < 8 {
		t.Error("BufferPoolFor floor of 8 pages not applied")
	}
}

// resultsEquivalent compares two result sets: exact for integers, dates and
// strings, within a relative epsilon for doubles. Float aggregates are
// summed in scan order, and a wrap-around scan legitimately sums in a
// different order than a front-to-back one — the same answer up to
// floating-point associativity, exactly as in a parallel DBMS.
func resultsEquivalent(t *testing.T, label string, base, shared []scanshare.QueryResult) {
	t.Helper()
	if len(base) != len(shared) {
		t.Fatalf("%s: %d vs %d results", label, len(base), len(shared))
	}
	const relEps = 1e-9
	for i := range base {
		b, s := base[i], shared[i]
		if b.Name != s.Name || b.Stream != s.Stream || len(b.Rows) != len(s.Rows) {
			t.Errorf("%s: result %d shape differs (%s/%d rows vs %s/%d rows)",
				label, i, b.Name, len(b.Rows), s.Name, len(s.Rows))
			continue
		}
		for r := range b.Rows {
			if len(b.Rows[r]) != len(s.Rows[r]) {
				t.Errorf("%s: %s row %d width differs", label, b.Name, r)
				continue
			}
			for c := range b.Rows[r] {
				bv, sv := b.Rows[r][c], s.Rows[r][c]
				if bv.Kind != sv.Kind {
					t.Errorf("%s: %s row %d col %d kind differs", label, b.Name, r, c)
					continue
				}
				if bv.Kind == scanshare.KindFloat64 {
					diff := bv.F - sv.F
					if diff < 0 {
						diff = -diff
					}
					scale := bv.F
					if scale < 0 {
						scale = -scale
					}
					if scale < 1 {
						scale = 1
					}
					if diff > relEps*scale {
						t.Errorf("%s: %s row %d col %d: %v vs %v", label, b.Name, r, c, bv.F, sv.F)
					}
					continue
				}
				if bv != sv {
					t.Errorf("%s: %s row %d col %d: %#v vs %#v", label, b.Name, r, c, bv, sv)
				}
			}
		}
	}
}

// TestAllTemplatesModeEquivalent runs every template of the battery
// concurrently in both engine modes and verifies equivalent result rows:
// scan sharing must never change query answers, only their cost.
func TestAllTemplatesModeEquivalent(t *testing.T) {
	run := func(mode scanshare.Mode) []scanshare.QueryResult {
		eng := testEngine(t, 48)
		db, err := Load(eng, GenConfig{ScaleFactor: 0.3, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		var jobs []scanshare.Job
		for i, tpl := range Templates() {
			jobs = append(jobs, scanshare.Job{
				Query:  tpl.Query(db),
				Start:  time.Duration(i) * 3 * time.Millisecond,
				Stream: i,
			})
		}
		rep, err := eng.Run(mode, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Results
	}
	resultsEquivalent(t, "jobs", run(scanshare.Baseline), run(scanshare.Shared))
}

// TestStreamsModeEquivalent does the same through the sequential-stream
// path, where wrap-around scans and residual placements interleave with
// stream ordering.
func TestStreamsModeEquivalent(t *testing.T) {
	run := func(mode scanshare.Mode) []scanshare.QueryResult {
		eng := testEngine(t, 32)
		db, err := Load(eng, GenConfig{ScaleFactor: 0.2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.RunStreams(mode, ThroughputStreams(db, 2))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Results
	}
	resultsEquivalent(t, "streams", run(scanshare.Baseline), run(scanshare.Shared))
}

func TestTableKeyString(t *testing.T) {
	for k, want := range map[TableKey]string{
		Lineitem: "lineitem", Orders: "orders", Part: "part", Customer: "customer", TableKey(9): "TableKey(9)",
	} {
		if k.String() != want {
			t.Errorf("TableKey.String() = %q, want %q", k.String(), want)
		}
	}
}

func TestHotFracMatchesSevenYears(t *testing.T) {
	if HotFrac <= 0.85 || HotFrac >= 0.87 {
		t.Errorf("HotFrac = %g, want 6/7", HotFrac)
	}
}

// TestIntnDrawsWhatIntnDraws: the loaders' intn must draw exactly what
// rand.Intn draws from the same source, or the database would change.
func TestIntnDrawsWhatIntnDraws(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 9, 11, 50, 64, 1000, 4097, 20_001, 800_001, 1<<31 - 1} {
		want, got := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
		d := newIntn(n)
		for i := 0; i < 20_000; i++ {
			if w, g := want.Intn(n), d.draw(got); w != g {
				t.Fatalf("n=%d draw %d: intn %d, rand.Intn %d", n, i, g, w)
			}
		}
	}
}
