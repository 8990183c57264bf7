package scanshare_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"scanshare"
)

func demoSchema() *scanshare.Schema {
	return scanshare.MustSchema(
		scanshare.Field{Name: "id", Kind: scanshare.KindInt64},
		scanshare.Field{Name: "price", Kind: scanshare.KindFloat64},
		scanshare.Field{Name: "flag", Kind: scanshare.KindString},
		scanshare.Field{Name: "day", Kind: scanshare.KindDate},
	)
}

// newEngine builds an engine with a small deterministic table of rows rows.
func newEngine(t *testing.T, poolPages, rows int) (*scanshare.Engine, *scanshare.Table) {
	t.Helper()
	eng, err := scanshare.New(scanshare.Config{
		BufferPoolPages: poolPages,
		Disk: scanshare.DiskConfig{
			SeekTime:        time.Millisecond,
			TransferPerPage: 100 * time.Microsecond,
			PageSize:        1024,
			SeriesBucket:    5 * time.Millisecond,
		},
		Sharing: scanshare.SharingConfig{PrefetchExtentPages: 4, MinSharePages: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := eng.LoadTable("demo", demoSchema(), func(add func(scanshare.Tuple) error) error {
		for i := 0; i < rows; i++ {
			err := add(scanshare.Tuple{
				scanshare.Int64(int64(i)),
				scanshare.Float64(float64(i) * 1.5),
				scanshare.String([]string{"A", "B", "C"}[i%3]),
				scanshare.Date(int64(i % 365)),
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, tbl
}

func TestNewValidation(t *testing.T) {
	if _, err := scanshare.New(scanshare.Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := scanshare.New(scanshare.Config{BufferPoolPages: -1}); err == nil {
		t.Error("negative pool accepted")
	}
	if _, err := scanshare.New(scanshare.Config{BufferPoolPages: 10, BusyRetryDelay: -1}); err == nil {
		t.Error("negative BusyRetryDelay accepted")
	}
}

func TestLoadAndLookup(t *testing.T) {
	eng, tbl := newEngine(t, 50, 500)
	if tbl.Name() != "demo" || tbl.NumTuples() != 500 || tbl.NumPages() <= 0 {
		t.Errorf("table = %s / %d tuples / %d pages", tbl.Name(), tbl.NumTuples(), tbl.NumPages())
	}
	got, err := eng.Lookup("demo")
	if err != nil || got.Name() != "demo" {
		t.Errorf("Lookup = %v, %v", got, err)
	}
	if _, err := eng.Lookup("ghost"); err == nil {
		t.Error("lookup of missing table succeeded")
	}
	if eng.DatabasePages() != tbl.NumPages() {
		t.Errorf("DatabasePages = %d, want %d", eng.DatabasePages(), tbl.NumPages())
	}
}

func TestLoadErrorsPropagate(t *testing.T) {
	eng, _ := newEngine(t, 50, 10)
	_, err := eng.LoadTable("broken", demoSchema(), func(add func(scanshare.Tuple) error) error {
		return fmt.Errorf("source exploded")
	})
	if err == nil || !strings.Contains(err.Error(), "source exploded") {
		t.Errorf("load error = %v", err)
	}
	if _, err := eng.LoadTable("demo", demoSchema(), func(func(scanshare.Tuple) error) error { return nil }); err == nil {
		t.Error("duplicate table name accepted")
	}
}

func TestRunSimpleQuery(t *testing.T) {
	eng, tbl := newEngine(t, 100, 600)
	q := scanshare.NewQuery(tbl).Named("count-all").CountAll()
	rep, err := eng.Run(scanshare.Baseline, []scanshare.Job{{Query: q}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("got %d results", len(rep.Results))
	}
	res := rep.Results[0]
	if len(res.Rows) != 1 || res.Rows[0][0].I != 600 {
		t.Errorf("count = %v", res.Rows)
	}
	if res.Name != "count-all" {
		t.Errorf("name = %q", res.Name)
	}
	if res.Elapsed() <= 0 || rep.Makespan < res.Elapsed() {
		t.Errorf("timing inconsistent: elapsed=%v makespan=%v", res.Elapsed(), rep.Makespan)
	}
	if rep.Disk.Reads == 0 || rep.Pool.Misses == 0 {
		t.Errorf("device stats empty: %+v %+v", rep.Disk, rep.Pool)
	}
}

func TestModesReturnIdenticalRows(t *testing.T) {
	build := func() (*scanshare.Engine, *scanshare.Query) {
		eng, tbl := newEngine(t, 20, 800)
		// Integer aggregates only: float sums are order-dependent and a
		// wrap-around scan legitimately sums in a different order (see
		// the workload package's epsilon-based equivalence tests).
		q := scanshare.NewQuery(tbl).
			Where(func(tup scanshare.Tuple) bool { return tup[0].I%7 == 0 }).
			GroupBy("flag").
			CountAll().
			Aggregate(scanshare.Min, "id").
			Aggregate(scanshare.Max, "id")
		return eng, q
	}

	run := func(mode scanshare.Mode) []scanshare.QueryResult {
		eng, q := build()
		jobs := []scanshare.Job{
			{Query: q, Stream: 0},
			{Query: q, Start: 3 * time.Millisecond, Stream: 1},
			{Query: q, Start: 6 * time.Millisecond, Stream: 2},
		}
		rep, err := eng.Run(mode, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Results
	}

	base := run(scanshare.Baseline)
	shared := run(scanshare.Shared)
	if len(base) != len(shared) {
		t.Fatal("result count mismatch")
	}
	for i := range base {
		if fmt.Sprint(base[i].Rows) != fmt.Sprint(shared[i].Rows) {
			t.Errorf("job %d rows differ between modes:\nbase:   %v\nshared: %v",
				i, base[i].Rows, shared[i].Rows)
		}
	}
}

func TestSharedModeReducesPhysicalReads(t *testing.T) {
	run := func(mode scanshare.Mode) (int64, time.Duration) {
		eng, tbl := newEngine(t, 15, 2000)
		q := scanshare.NewQuery(tbl).CountAll()
		jobs := []scanshare.Job{
			{Query: q, Stream: 0},
			{Query: q, Start: 5 * time.Millisecond, Stream: 1},
			{Query: q, Start: 10 * time.Millisecond, Stream: 2},
		}
		rep, err := eng.Run(mode, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Disk.Reads, rep.Makespan
	}
	baseReads, baseTime := run(scanshare.Baseline)
	sharedReads, sharedTime := run(scanshare.Shared)
	if sharedReads >= baseReads {
		t.Errorf("reads: shared=%d base=%d", sharedReads, baseReads)
	}
	if sharedTime >= baseTime {
		t.Errorf("makespan: shared=%v base=%v", sharedTime, baseTime)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	run := func() string {
		eng, tbl := newEngine(t, 15, 1000)
		q := scanshare.NewQuery(tbl).Weight(3).CountAll()
		rep, err := eng.Run(scanshare.Shared, []scanshare.Job{
			{Query: q}, {Query: q, Start: 2 * time.Millisecond}, {Query: q, Start: 7 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Summary()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if again := run(); again != first {
			t.Fatalf("non-deterministic run:\n%s\nvs\n%s", first, again)
		}
	}
}

func TestRunValidation(t *testing.T) {
	eng, tbl := newEngine(t, 50, 100)
	q := scanshare.NewQuery(tbl)
	if _, err := eng.Run(scanshare.Baseline, nil); err == nil {
		t.Error("empty job list accepted")
	}
	if _, err := eng.Run(scanshare.Baseline, []scanshare.Job{{}}); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := eng.Run(scanshare.Baseline, []scanshare.Job{{Query: q, Start: -1}}); err == nil {
		t.Error("negative start accepted")
	}
	other, otherTbl := newEngine(t, 50, 100)
	_ = other
	if _, err := eng.Run(scanshare.Baseline, []scanshare.Job{{Query: scanshare.NewQuery(otherTbl)}}); err == nil {
		t.Error("cross-engine query accepted")
	}
}

func TestQueryErrors(t *testing.T) {
	eng, tbl := newEngine(t, 50, 100)
	cases := map[string]*scanshare.Query{
		"bad range":         scanshare.NewQuery(tbl).Range(0.9, 0.1),
		"range above 1":     scanshare.NewQuery(tbl).Range(0, 1.5),
		"unknown column":    scanshare.NewQuery(tbl).Sum("nope"),
		"unknown group col": scanshare.NewQuery(tbl).GroupBy("nope").CountAll(),
		"agg not projected": scanshare.NewQuery(tbl).Select("id").Sum("price"),
	}
	for name, q := range cases {
		if _, err := eng.Run(scanshare.Baseline, []scanshare.Job{{Query: q}}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestQueryAggregateKinds: the builder rejects SUM and AVG over a varchar at
// plan time, naming the column and its kind, with or without a projection
// renumbering the columns; the other aggregates and kinds plan and run.
func TestQueryAggregateKinds(t *testing.T) {
	eng, tbl := newEngine(t, 50, 100)
	for name, tc := range map[string]struct {
		q       *scanshare.Query
		wantErr bool
	}{
		"sum varchar":           {scanshare.NewQuery(tbl).Sum("flag"), true},
		"avg varchar":           {scanshare.NewQuery(tbl).GroupBy("day").Avg("flag"), true},
		"sum projected varchar": {scanshare.NewQuery(tbl).Select("flag", "id").Sum("flag"), true},
		"min max varchar":       {scanshare.NewQuery(tbl).Aggregate(scanshare.Min, "flag").Aggregate(scanshare.Max, "flag"), false},
		"sum date avg bigint":   {scanshare.NewQuery(tbl).Sum("day").Avg("id").CountAll(), false},
	} {
		_, err := eng.Run(scanshare.Baseline, []scanshare.Job{{Query: tc.q}})
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

func TestRangeQueryScansSubset(t *testing.T) {
	eng, tbl := newEngine(t, 200, 1000)
	full, err := eng.Run(scanshare.Baseline, []scanshare.Job{
		{Query: scanshare.NewQuery(tbl).CountAll()},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng2, tbl2 := newEngine(t, 200, 1000)
	half, err := eng2.Run(scanshare.Baseline, []scanshare.Job{
		{Query: scanshare.NewQuery(tbl2).Range(0.5, 1).CountAll()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if half.Results[0].PhysicalReads >= full.Results[0].PhysicalReads {
		t.Errorf("range scan read %d pages, full %d", half.Results[0].PhysicalReads, full.Results[0].PhysicalReads)
	}
	if half.Results[0].Rows[0][0].I >= full.Results[0].Rows[0][0].I {
		t.Errorf("range count %d >= full count %d", half.Results[0].Rows[0][0].I, full.Results[0].Rows[0][0].I)
	}
}

func TestProjectionAndLimit(t *testing.T) {
	eng, tbl := newEngine(t, 50, 300)
	q := scanshare.NewQuery(tbl).Select("flag", "id").Limit(5)
	rep, err := eng.Run(scanshare.Baseline, []scanshare.Job{{Query: q}})
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Results[0].Rows
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	if len(rows[0]) != 2 || rows[0][0].Kind != scanshare.KindString {
		t.Errorf("projected row = %#v", rows[0])
	}
}

func TestReportAggregations(t *testing.T) {
	eng, tbl := newEngine(t, 30, 1000)
	q1 := scanshare.NewQuery(tbl).Named("alpha").CountAll()
	q2 := scanshare.NewQuery(tbl).Named("beta").Weight(4).CountAll()
	rep, err := eng.Run(scanshare.Shared, []scanshare.Job{
		{Query: q1, Stream: 0},
		{Query: q2, Stream: 0, Start: time.Millisecond},
		{Query: q1, Stream: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	streams := rep.PerStream()
	if len(streams) != 2 || streams[0] <= 0 || streams[1] <= 0 {
		t.Errorf("PerStream = %v", streams)
	}
	queries := rep.PerQuery()
	if len(queries) != 2 || queries["alpha"] <= 0 || queries["beta"] <= 0 {
		t.Errorf("PerQuery = %v", queries)
	}
	cpu, io, _, _ := rep.TotalAcct()
	if cpu <= 0 || io <= 0 {
		t.Errorf("TotalAcct = %v %v", cpu, io)
	}
	sum := rep.Summary()
	for _, want := range []string{"mode=shared", "alpha", "beta", "hit ratio"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestDiskSeriesCollected(t *testing.T) {
	eng, tbl := newEngine(t, 30, 2000)
	rep, err := eng.Run(scanshare.Baseline, []scanshare.Job{
		{Query: scanshare.NewQuery(tbl).CountAll()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DiskSeries) == 0 {
		t.Fatal("no disk series despite SeriesBucket")
	}
	var total int64
	for i, s := range rep.DiskSeries {
		total += s.Reads
		if i > 0 && s.Offset <= rep.DiskSeries[i-1].Offset {
			t.Error("series not sorted by offset")
		}
	}
	if total != rep.Disk.Reads {
		t.Errorf("series reads %d != stats reads %d", total, rep.Disk.Reads)
	}
}

func TestSuccessiveRunsContinueTimeline(t *testing.T) {
	eng, tbl := newEngine(t, 200, 500)
	q := scanshare.NewQuery(tbl).CountAll()
	r1, err := eng.Run(scanshare.Shared, []scanshare.Job{{Query: q}})
	if err != nil {
		t.Fatal(err)
	}
	t1 := eng.Now()
	if t1 <= 0 {
		t.Error("virtual time did not advance")
	}
	r2, err := eng.Run(scanshare.Shared, []scanshare.Job{{Query: q}})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Now() <= t1 {
		t.Error("second run did not advance time")
	}
	// The pool is warm after run 1 (it holds the whole table).
	if r2.Disk.Reads >= r1.Disk.Reads {
		t.Errorf("second run reads %d, first %d: pool should be warm", r2.Disk.Reads, r1.Disk.Reads)
	}
}

func TestRunStreamsSequentialWithinStream(t *testing.T) {
	eng, tbl := newEngine(t, 100, 800)
	q1 := scanshare.NewQuery(tbl).Named("first").CountAll()
	q2 := scanshare.NewQuery(tbl).Named("second").Avg("price")
	rep, err := eng.RunStreams(scanshare.Shared, [][]scanshare.StreamItem{
		{{Query: q1}, {Query: q2, ThinkTime: 5 * time.Millisecond}},
		{{Query: q1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("got %d results", len(rep.Results))
	}
	var first, second scanshare.QueryResult
	for _, r := range rep.Results {
		if r.Stream == 0 && r.Name == "first" {
			first = r
		}
		if r.Stream == 0 && r.Name == "second" {
			second = r
		}
	}
	if second.Start < first.End+5*time.Millisecond {
		t.Errorf("second query started at %v, before first ended (%v) plus think time", second.Start, first.End)
	}
	if second.Rows[0][0].Kind != scanshare.KindFloat64 {
		t.Errorf("avg returned %#v", second.Rows[0])
	}
	streams := rep.PerStream()
	if len(streams) != 2 {
		t.Errorf("PerStream = %v", streams)
	}
}

func TestRunStreamsValidation(t *testing.T) {
	eng, tbl := newEngine(t, 100, 100)
	q := scanshare.NewQuery(tbl)
	if _, err := eng.RunStreams(scanshare.Shared, nil); err == nil {
		t.Error("no streams accepted")
	}
	if _, err := eng.RunStreams(scanshare.Shared, [][]scanshare.StreamItem{{}}); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := eng.RunStreams(scanshare.Shared, [][]scanshare.StreamItem{{{Query: nil}}}); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := eng.RunStreams(scanshare.Shared, [][]scanshare.StreamItem{{{Query: q, ThinkTime: -1}}}); err == nil {
		t.Error("negative think time accepted")
	}
	_, otherTbl := newEngine(t, 100, 100)
	if _, err := eng.RunStreams(scanshare.Shared, [][]scanshare.StreamItem{{{Query: scanshare.NewQuery(otherTbl)}}}); err == nil {
		t.Error("cross-engine stream accepted")
	}
	// Errors inside a stream propagate with context.
	bad := scanshare.NewQuery(tbl).Sum("missing-column")
	_, err := eng.RunStreams(scanshare.Shared, [][]scanshare.StreamItem{{{Query: q}, {Query: bad}}})
	if err == nil || !strings.Contains(err.Error(), "missing-column") {
		t.Errorf("stream error = %v, want the column error with context", err)
	}
}

func TestPackageLevelRunAndMustNew(t *testing.T) {
	eng := scanshare.MustNew(scanshare.Config{BufferPoolPages: 32})
	tbl, err := eng.LoadTable("t", demoSchema(), func(add func(scanshare.Tuple) error) error {
		return add(scanshare.Tuple{scanshare.Int64(1), scanshare.Float64(2), scanshare.String("x"), scanshare.Date(3)})
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scanshare.Run(eng, scanshare.Baseline, []scanshare.Job{{Query: scanshare.NewQuery(tbl).CountAll()}})
	if err != nil || rep.Results[0].Rows[0][0].I != 1 {
		t.Errorf("Run = %v, %v", rep, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad config did not panic")
		}
	}()
	scanshare.MustNew(scanshare.Config{})
}

func TestQueryImportanceReducesThrottling(t *testing.T) {
	// An interactive (high-importance) leader is throttled less than a
	// normal one in the same drift scenario.
	run := func(imp scanshare.Importance) time.Duration {
		eng, tbl := newEngine(t, 60, 3000)
		fast := scanshare.NewQuery(tbl).Named("fast").Importance(imp).CountAll()
		slow := scanshare.NewQuery(tbl).Named("slow").Weight(60).CountAll()
		rep, err := eng.Run(scanshare.Shared, []scanshare.Job{
			{Query: fast, Stream: 0},
			{Query: slow, Stream: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Results {
			if r.Name == "fast" {
				return r.ThrottleWait
			}
		}
		t.Fatal("fast query missing")
		return 0
	}
	normal := run(scanshare.ImportanceNormal)
	high := run(scanshare.ImportanceHigh)
	if normal <= 0 {
		t.Fatalf("scenario did not throttle at all (normal=%v)", normal)
	}
	if high >= normal {
		t.Errorf("high-importance query throttled %v, normal %v; want less", high, normal)
	}
}

func TestSharingSnapshotIdle(t *testing.T) {
	eng, _ := newEngine(t, 32, 100)
	snap := eng.SharingSnapshot()
	if len(snap.Scans) != 0 || len(snap.Groups) != 0 {
		t.Errorf("idle snapshot = %+v", snap)
	}
}

func TestNewSchemaErrors(t *testing.T) {
	if _, err := scanshare.NewSchema(); err == nil {
		t.Error("empty schema accepted")
	}
	s, err := scanshare.NewSchema(scanshare.Field{Name: "a", Kind: scanshare.KindInt64})
	if err != nil || s.NumFields() != 1 {
		t.Errorf("NewSchema = %v, %v", s, err)
	}
}

func TestObserverSeesScansAndGroups(t *testing.T) {
	eng, tbl := newEngine(t, 15, 2000)
	q := scanshare.NewQuery(tbl).CountAll()
	var ticks int
	var sawScans, sawGroups bool
	err := eng.Observe(2*time.Millisecond, func(now time.Duration, snap scanshare.SharingSnapshot) {
		ticks++
		if len(snap.Scans) > 0 {
			sawScans = true
		}
		if len(snap.Groups) > 0 {
			sawGroups = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(scanshare.Shared, []scanshare.Job{
		{Query: q}, {Query: q, Start: 3 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ticks == 0 || !sawScans || !sawGroups {
		t.Errorf("observer: ticks=%d sawScans=%v sawGroups=%v", ticks, sawScans, sawGroups)
	}
	// Observers are one-shot: the next run must not invoke them again.
	before := ticks
	if _, err := eng.Run(scanshare.Shared, []scanshare.Job{{Query: q}}); err != nil {
		t.Fatal(err)
	}
	if ticks != before {
		t.Error("observer survived into the next run")
	}
}

func TestObserveValidation(t *testing.T) {
	eng, _ := newEngine(t, 15, 100)
	if err := eng.Observe(0, func(time.Duration, scanshare.SharingSnapshot) {}); err == nil {
		t.Error("zero interval accepted")
	}
	if err := eng.Observe(time.Second, nil); err == nil {
		t.Error("nil observer accepted")
	}
}

func TestColumnStatsAndClustering(t *testing.T) {
	eng, tbl := newEngine(t, 32, 500)
	// "id" is inserted 0..499 in order: clustered, range [0,499].
	min, max, ok := tbl.ColumnRange("id")
	if !ok || min.I != 0 || max.I != 499 {
		t.Errorf("id range = %v..%v ok=%v", min, max, ok)
	}
	if !tbl.Clustered("id") {
		t.Error("monotone column not detected as clustered")
	}
	// "day" cycles i%365: not monotone.
	if tbl.Clustered("day") {
		t.Error("cycling column detected as clustered")
	}
	if _, _, ok := tbl.ColumnRange("ghost"); ok {
		t.Error("range of unknown column reported")
	}
	if tbl.Clustered("ghost") {
		t.Error("unknown column reported clustered")
	}
	// Stats survive Lookup.
	looked, err := eng.Lookup(tbl.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !looked.Clustered("id") {
		t.Error("stats lost through Lookup")
	}
}

func TestMultiplePoolsIsolateSharing(t *testing.T) {
	eng, err := scanshare.New(scanshare.Config{
		BufferPoolPages: 20,
		Pools:           []scanshare.PoolConfig{{Name: "hot", Pages: 40}},
		Disk:            scanshare.DiskConfig{PageSize: 1024},
		Sharing:         scanshare.SharingConfig{PrefetchExtentPages: 4, MinSharePages: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	load := func(name, pool string) *scanshare.Table {
		tbl, err := eng.LoadTableInPool(name, pool, demoSchema(), func(add func(scanshare.Tuple) error) error {
			for i := 0; i < 1500; i++ {
				if err := add(scanshare.Tuple{
					scanshare.Int64(int64(i)), scanshare.Float64(1), scanshare.String("x"), scanshare.Date(0),
				}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	cold := load("cold_table", "")
	hot := load("hot_table", "hot")
	if cold.Pool() != "" || hot.Pool() != "hot" {
		t.Errorf("pool assignment: %q / %q", cold.Pool(), hot.Pool())
	}

	q1 := scanshare.NewQuery(cold).Named("cold").CountAll()
	q2 := scanshare.NewQuery(hot).Named("hot").CountAll()
	var crossGroups bool
	eng.Observe(2*time.Millisecond, func(_ time.Duration, snap scanshare.SharingSnapshot) {
		for _, g := range snap.Groups {
			tables := map[int]bool{}
			for range g.Members {
				tables[int(g.Table)] = true
			}
			if len(tables) > 1 {
				crossGroups = true
			}
		}
	})
	rep, err := eng.Run(scanshare.Shared, []scanshare.Job{
		{Query: q1, Stream: 0},
		{Query: q1, Start: 2 * time.Millisecond, Stream: 1},
		{Query: q2, Stream: 2},
		{Query: q2, Start: 2 * time.Millisecond, Stream: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if crossGroups {
		t.Error("a group spanned pools")
	}
	if len(rep.Pools) != 2 {
		t.Fatalf("Pools = %v", rep.Pools)
	}
	def, hotStats := rep.Pools[""], rep.Pools["hot"]
	if def.LogicalReads == 0 || hotStats.LogicalReads == 0 {
		t.Errorf("per-pool stats empty: %+v", rep.Pools)
	}
	if rep.Pool.LogicalReads != def.LogicalReads+hotStats.LogicalReads {
		t.Error("aggregate pool stats do not sum the per-pool stats")
	}
	// Sharing happened inside both pools independently.
	if rep.Sharing.JoinPlacements+rep.Sharing.TrailPlacements < 2 {
		t.Errorf("expected sharing in both pools: %+v", rep.Sharing)
	}
}

func TestPoolConfigValidation(t *testing.T) {
	if _, err := scanshare.New(scanshare.Config{
		BufferPoolPages: 10,
		Pools:           []scanshare.PoolConfig{{Name: "", Pages: 10}},
	}); err == nil {
		t.Error("empty pool name accepted")
	}
	if _, err := scanshare.New(scanshare.Config{
		BufferPoolPages: 10,
		Pools:           []scanshare.PoolConfig{{Name: "a", Pages: 10}, {Name: "a", Pages: 10}},
	}); err == nil {
		t.Error("duplicate pool name accepted")
	}
	if _, err := scanshare.New(scanshare.Config{
		BufferPoolPages: 10,
		Pools:           []scanshare.PoolConfig{{Name: "a", Pages: 0}},
	}); err == nil {
		t.Error("zero-size pool accepted")
	}
	eng := scanshare.MustNew(scanshare.Config{BufferPoolPages: 10})
	if _, err := eng.LoadTableInPool("t", "ghost", demoSchema(), func(func(scanshare.Tuple) error) error { return nil }); err == nil {
		t.Error("unknown pool accepted")
	}
}

func TestLookupPreservesPool(t *testing.T) {
	eng, err := scanshare.New(scanshare.Config{
		BufferPoolPages: 16,
		Pools:           []scanshare.PoolConfig{{Name: "p2", Pages: 16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.LoadTableInPool("t", "p2", demoSchema(), func(add func(scanshare.Tuple) error) error {
		return add(scanshare.Tuple{scanshare.Int64(1), scanshare.Float64(2), scanshare.String("x"), scanshare.Date(3)})
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Lookup("t")
	if err != nil || got.Pool() != "p2" {
		t.Errorf("Lookup pool = %q, %v", got.Pool(), err)
	}
	// Queries on a looked-up table must still run against its own pool.
	rep, err := eng.Run(scanshare.Shared, []scanshare.Job{{Query: scanshare.NewQuery(got).CountAll()}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pools["p2"].LogicalReads == 0 {
		t.Error("query did not hit the table's pool")
	}
}

func TestModeString(t *testing.T) {
	if scanshare.Baseline.String() != "base" || scanshare.Shared.String() != "shared" {
		t.Error("mode names wrong")
	}
	if scanshare.Mode(9).String() != "Mode(?)" {
		t.Error("unknown mode name wrong")
	}
}

func TestBoundedCoresSerializeCPUWork(t *testing.T) {
	// Four CPU-heavy queries on one core must take ~4x as long as on
	// unlimited cores, with the queueing visible in the accounting.
	run := func(cores int) (time.Duration, time.Duration) {
		eng, err := scanshare.New(scanshare.Config{
			BufferPoolPages: 200,
			CPU:             scanshare.CPUConfig{Cores: cores},
			Disk:            scanshare.DiskConfig{PageSize: 1024},
		})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := eng.LoadTable("t", demoSchema(), func(add func(scanshare.Tuple) error) error {
			for i := 0; i < 2000; i++ {
				if err := add(scanshare.Tuple{
					scanshare.Int64(int64(i)), scanshare.Float64(1), scanshare.String("x"), scanshare.Date(0),
				}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		q := scanshare.NewQuery(tbl).Weight(40).CountAll()
		jobs := []scanshare.Job{{Query: q}, {Query: q}, {Query: q}, {Query: q}}
		rep, err := eng.Run(scanshare.Baseline, jobs)
		if err != nil {
			t.Fatal(err)
		}
		var queue time.Duration
		for _, r := range rep.Results {
			queue += r.CPUQueueWait
		}
		return rep.Makespan, queue
	}
	unlimited, q0 := run(0)
	single, q1 := run(1)
	if q0 != 0 {
		t.Errorf("unlimited cores queued %v", q0)
	}
	if q1 <= 0 {
		t.Error("single core recorded no CPU queueing")
	}
	if single < unlimited*3 {
		t.Errorf("single-core makespan %v, unlimited %v: want ~4x serialization", single, unlimited)
	}
}

func TestNegativeCoresRejected(t *testing.T) {
	if _, err := scanshare.New(scanshare.Config{BufferPoolPages: 10, CPU: scanshare.CPUConfig{Cores: -2}}); err == nil {
		t.Error("negative cores accepted")
	}
}

func TestAdaptiveReportingReducesSSMCalls(t *testing.T) {
	run := func(adaptive bool) int64 {
		eng, err := scanshare.New(scanshare.Config{
			BufferPoolPages: 30,
			Disk:            scanshare.DiskConfig{PageSize: 1024},
			Sharing: scanshare.SharingConfig{
				PrefetchExtentPages: 4,
				AdaptiveReporting:   adaptive,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := eng.LoadTable("t", demoSchema(), func(add func(scanshare.Tuple) error) error {
			for i := 0; i < 3000; i++ {
				if err := add(scanshare.Tuple{
					scanshare.Int64(int64(i)), scanshare.Float64(1), scanshare.String("x"), scanshare.Date(0),
				}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// One lone scan: adaptive mode should report ~4x less often.
		rep, err := eng.Run(scanshare.Shared, []scanshare.Job{
			{Query: scanshare.NewQuery(tbl).CountAll()},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Sharing.ProgressReports
	}
	fixed := run(false)
	adaptive := run(true)
	if adaptive*3 > fixed {
		t.Errorf("adaptive reporting did not reduce calls: %d vs %d", adaptive, fixed)
	}
	if adaptive == 0 {
		t.Error("no progress reports at all")
	}
}

func TestTraceSharingDeliversEvents(t *testing.T) {
	eng, tbl := newEngine(t, 15, 2000)
	q := scanshare.NewQuery(tbl).CountAll()
	var starts, ends int
	eng.TraceSharing(func(pool string, ev scanshare.SharingEvent) {
		if pool != "" {
			t.Errorf("unexpected pool %q", pool)
		}
		switch ev.Kind {
		case scanshare.EventScanStarted:
			starts++
		case scanshare.EventScanEnded:
			ends++
		}
	})
	_, err := eng.Run(scanshare.Shared, []scanshare.Job{
		{Query: q}, {Query: q, Start: 3 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if starts != 2 || ends != 2 {
		t.Errorf("starts=%d ends=%d, want 2/2", starts, ends)
	}
	// Tracing can be turned off.
	eng.TraceSharing(nil)
	before := starts
	if _, err := eng.Run(scanshare.Shared, []scanshare.Job{{Query: q}}); err != nil {
		t.Fatal(err)
	}
	if starts != before {
		t.Error("events delivered after tracing disabled")
	}
}

func TestJoinQueryEndToEnd(t *testing.T) {
	eng, err := scanshare.New(scanshare.Config{BufferPoolPages: 64, Disk: scanshare.DiskConfig{PageSize: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	orders, err := eng.LoadTable("orders", scanshare.MustSchema(
		scanshare.Field{Name: "o_id", Kind: scanshare.KindInt64},
		scanshare.Field{Name: "o_cust", Kind: scanshare.KindInt64},
	), func(add func(scanshare.Tuple) error) error {
		for i := 0; i < 600; i++ {
			if err := add(scanshare.Tuple{scanshare.Int64(int64(i)), scanshare.Int64(int64(i % 50))}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	customers, err := eng.LoadTable("customers", scanshare.MustSchema(
		scanshare.Field{Name: "c_id", Kind: scanshare.KindInt64},
		scanshare.Field{Name: "segment", Kind: scanshare.KindString},
	), func(add func(scanshare.Tuple) error) error {
		for i := 0; i < 50; i++ {
			if err := add(scanshare.Tuple{scanshare.Int64(int64(i)), scanshare.String([]string{"retail", "corp"}[i%2])}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Orders per segment: join orders to customers (12 orders per
	// customer on average, duplicate join keys on the probe side).
	q := scanshare.NewQuery(customers).
		Join(scanshare.NewQuery(orders), "c_id", "o_cust").
		Named("orders-by-segment").
		GroupBy("segment").CountAll().
		OrderBy("segment")
	rep, err := eng.Run(scanshare.Shared, []scanshare.Job{{Query: q}})
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Results[0].Rows
	if len(rows) != 2 {
		t.Fatalf("got %d segments: %v", len(rows), rows)
	}
	if rows[0][0].S != "corp" || rows[1][0].S != "retail" {
		t.Errorf("segment order: %v", rows)
	}
	if rows[0][1].I+rows[1][1].I != 600 {
		t.Errorf("joined order count = %d + %d, want 600", rows[0][1].I, rows[1][1].I)
	}

	// Post-join Where filters combined tuples (o_id from the right side).
	filtered := scanshare.NewQuery(customers).
		Join(scanshare.NewQuery(orders), "c_id", "o_cust").
		Where(func(tup scanshare.Tuple) bool { return tup[2].I < 100 }).
		CountAll()
	rep, err = eng.Run(scanshare.Shared, []scanshare.Job{{Query: filtered}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Results[0].Rows[0][0].I; got != 100 {
		t.Errorf("filtered join count = %d, want 100", got)
	}
}

func TestJoinQueryValidation(t *testing.T) {
	eng, tbl := newEngine(t, 64, 200)
	tbl2, err := eng.LoadTable("demo2", demoSchema(), func(add func(scanshare.Tuple) error) error {
		return add(scanshare.Tuple{scanshare.Int64(1), scanshare.Float64(2), scanshare.String("x"), scanshare.Date(3)})
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(q *scanshare.Query) error {
		_, err := eng.Run(scanshare.Baseline, []scanshare.Job{{Query: q}})
		return err
	}
	// Side with aggregation is rejected.
	if err := run(scanshare.NewQuery(tbl).CountAll().Join(scanshare.NewQuery(tbl2), "id", "id")); err == nil {
		t.Error("aggregated join side accepted")
	}
	// Kind mismatch on join columns.
	if err := run(scanshare.NewQuery(tbl).Join(scanshare.NewQuery(tbl2), "id", "flag")); err == nil {
		t.Error("mismatched join kinds accepted")
	}
	// Unknown join column.
	if err := run(scanshare.NewQuery(tbl).Join(scanshare.NewQuery(tbl2), "ghost", "id")); err == nil {
		t.Error("unknown join column accepted")
	}
	// Ambiguous output column (both tables have "id").
	if err := run(scanshare.NewQuery(tbl).Join(scanshare.NewQuery(tbl2), "id", "id").Select("id")); err == nil {
		t.Error("ambiguous column accepted")
	}
	// Nested join.
	j := scanshare.NewQuery(tbl).Join(scanshare.NewQuery(tbl2), "id", "id")
	if err := run(j.Join(scanshare.NewQuery(tbl2), "id", "id")); err == nil {
		t.Error("nested join accepted")
	}
}

func TestJoinScansShareWithOtherQueries(t *testing.T) {
	// The probe scan of a join shares with a concurrent plain scan of the
	// same table.
	run := func(mode scanshare.Mode) int64 {
		eng, tbl := newEngine(t, 15, 3000)
		dim, err := eng.LoadTable("dim", scanshare.MustSchema(
			scanshare.Field{Name: "k", Kind: scanshare.KindInt64},
		), func(add func(scanshare.Tuple) error) error {
			for i := 0; i < 100; i++ {
				if err := add(scanshare.Tuple{scanshare.Int64(int64(i))}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		join := scanshare.NewQuery(dim).Join(scanshare.NewQuery(tbl), "k", "id").CountAll()
		plain := scanshare.NewQuery(tbl).CountAll()
		rep, err := eng.Run(mode, []scanshare.Job{
			{Query: plain},
			{Query: join, Start: 4 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Disk.Reads
	}
	base := run(scanshare.Baseline)
	shared := run(scanshare.Shared)
	if shared >= base {
		t.Errorf("join probe scan did not share: %d vs %d reads", shared, base)
	}
}

func TestJoinRejectsTopLevelScanKnobs(t *testing.T) {
	eng, tbl := newEngine(t, 64, 100)
	q := scanshare.NewQuery(tbl).Join(scanshare.NewQuery(tbl), "id", "id")
	// (self-join on the same table: column ambiguity only matters when
	// referencing columns; a bare CountAll over it is fine semantically,
	// but the Weight below must be rejected first)
	q.Weight(5).CountAll()
	if _, err := eng.Run(scanshare.Baseline, []scanshare.Job{{Query: q}}); err == nil {
		t.Error("top-level Weight on a join accepted")
	}
}
