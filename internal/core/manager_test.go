package core

import (
	"testing"
	"time"

	"scanshare/internal/heap/heaptest"
)

// testConfig: 1000-page buffer budget, 16-page extents, 32-page throttle
// threshold, joining enabled from the first shared page.
func testConfig() Config {
	cfg := DefaultConfig(1000)
	cfg.MinSharePages = 1
	return cfg
}

func startScan(t *testing.T, m *Manager, table TableID, pages int, now time.Duration) (ScanID, Placement) {
	t.Helper()
	id, pl, err := m.StartScan(ScanOpts{Table: table, TablePages: pages}, now)
	if err != nil {
		t.Fatalf("StartScan: %v", err)
	}
	return id, pl
}

func report(t *testing.T, m *Manager, id ScanID, processed int, now time.Duration) Advice {
	t.Helper()
	adv, err := m.ReportProgress(id, processed, now)
	if err != nil {
		t.Fatalf("ReportProgress(%d, %d): %v", id, processed, err)
	}
	return adv
}

func TestStartScanValidation(t *testing.T) {
	m := MustNewManager(testConfig())
	bad := []ScanOpts{
		{Table: 1, TablePages: 0},
		{Table: 1, TablePages: -5},
		{Table: 1, TablePages: 100, StartPage: -1},
		{Table: 1, TablePages: 100, StartPage: 50, EndPage: 50},
		{Table: 1, TablePages: 100, StartPage: 60, EndPage: 50},
		{Table: 1, TablePages: 100, EndPage: 200},
		{Table: 1, TablePages: 100, EstimatedDuration: -time.Second},
	}
	for i, opts := range bad {
		if _, _, err := m.StartScan(opts, 0); err == nil {
			t.Errorf("case %d: invalid opts accepted: %+v", i, opts)
		}
	}
}

func TestFirstScanStartsCold(t *testing.T) {
	m := MustNewManager(testConfig())
	_, pl := startScan(t, m, 1, 500, 0)
	if pl.Origin != 0 || pl.JoinedScan != NoScan || pl.FromResidual {
		t.Errorf("first scan placement = %+v, want cold start at 0", pl)
	}
	if s := m.Stats(); s.ColdPlacements != 1 || s.ScansStarted != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestEndPageZeroMeansWholeTable(t *testing.T) {
	m := MustNewManager(testConfig())
	id, _ := startScan(t, m, 1, 500, 0)
	// Processing all 500 pages must be accepted.
	report(t, m, id, 500, time.Second)
	if err := m.EndScan(id, time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestSecondScanJoinsFirst(t *testing.T) {
	cfg := testConfig()
	cfg.BufferPoolPages = 100 // trail window 50 < the 100-page gap
	m := MustNewManager(cfg)
	a, _ := startScan(t, m, 1, 500, 0)
	report(t, m, a, 100, time.Second) // a now at page 100, 100 pages/s
	_, pl := startScan(t, m, 1, 500, time.Second)
	if pl.JoinedScan != a {
		t.Fatalf("second scan joined %d, want %d", pl.JoinedScan, a)
	}
	if pl.Origin != 100 {
		t.Errorf("joined at page %d, want 100", pl.Origin)
	}
	if s := m.Stats(); s.JoinPlacements != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestScansOnDifferentTablesDoNotJoin(t *testing.T) {
	m := MustNewManager(testConfig())
	startScan(t, m, 1, 500, 0)
	_, pl := startScan(t, m, 2, 500, 0)
	if pl.JoinedScan != NoScan {
		t.Error("scan joined a scan on a different table")
	}
}

func TestProgressValidation(t *testing.T) {
	m := MustNewManager(testConfig())
	id, _ := startScan(t, m, 1, 100, 0)
	if _, err := m.ReportProgress(id+99, 1, 0); err == nil {
		t.Error("progress for unknown scan accepted")
	}
	report(t, m, id, 50, time.Second)
	if _, err := m.ReportProgress(id, 40, 2*time.Second); err == nil {
		t.Error("backwards progress accepted")
	}
	if _, err := m.ReportProgress(id, 101, 2*time.Second); err == nil {
		t.Error("progress beyond scan length accepted")
	}
}

func TestEndScanValidation(t *testing.T) {
	m := MustNewManager(testConfig())
	id, _ := startScan(t, m, 1, 100, 0)
	if err := m.EndScan(id, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.EndScan(id, time.Second); err == nil {
		t.Error("double EndScan accepted")
	}
	if m.ActiveScans() != 0 {
		t.Errorf("ActiveScans = %d after end", m.ActiveScans())
	}
}

func TestSpeedIsWindowed(t *testing.T) {
	m := MustNewManager(testConfig())
	id, _ := startScan(t, m, 1, 1000, 0)
	report(t, m, id, 100, time.Second) // 100 pages/s
	report(t, m, id, 120, 2*time.Second)
	snap := m.Snapshot()
	if len(snap.Scans) != 1 {
		t.Fatal("missing scan in snapshot")
	}
	// Windowed speed reflects only the last second: 20 pages/s.
	if got := snap.Scans[0].SpeedPagesSec; got != 20 {
		t.Errorf("speed = %g, want 20 (windowed, not cumulative)", got)
	}
}

func TestLeaderIsThrottledWhenGroupDrifts(t *testing.T) {
	m := MustNewManager(testConfig())
	a, _ := startScan(t, m, 1, 2000, 0)
	b, plB := startScan(t, m, 1, 2000, 0)
	if plB.JoinedScan != a {
		t.Fatal("b did not join a")
	}
	// a speeds ahead: 200 pages in 1s; b does 100 pages in 1s. The first
	// leader report establishes the gap baseline; the second shows growth.
	report(t, m, b, 100, time.Second)
	report(t, m, a, 150, time.Second)
	advA := report(t, m, a, 200, time.Second)
	// Distance 100 > threshold 32: leader a must be told to wait.
	if advA.Wait <= 0 {
		t.Fatalf("leader not throttled: %+v", advA)
	}
	if advA.Priority != PageHigh {
		t.Errorf("leader priority = %v, want high", advA.Priority)
	}
	advB := report(t, m, b, 100, time.Second)
	if advB.Wait != 0 {
		t.Errorf("trailer was throttled: %+v", advB)
	}
	if advB.Priority != PageLow {
		t.Errorf("trailer priority = %v, want low", advB.Priority)
	}
	st := m.Stats()
	if st.ThrottleEvents == 0 || st.ThrottleTime <= 0 {
		t.Errorf("throttle stats not recorded: %+v", st)
	}
}

func TestNoThrottleWithinThreshold(t *testing.T) {
	m := MustNewManager(testConfig())
	a, _ := startScan(t, m, 1, 2000, 0)
	b, _ := startScan(t, m, 1, 2000, 0)
	report(t, m, b, 100, time.Second)
	adv := report(t, m, a, 120, time.Second) // distance 20 < 32
	if adv.Wait != 0 {
		t.Errorf("leader throttled within threshold: %+v", adv)
	}
}

func TestWaitSizedByTrailerSpeed(t *testing.T) {
	cfg := testConfig()
	cfg.MaxWaitPerUpdate = time.Hour // don't cap in this test
	m := MustNewManager(cfg)
	a, _ := startScan(t, m, 1, 5000, 0)
	b, _ := startScan(t, m, 1, 5000, 0)
	report(t, m, b, 50, time.Second)  // trailer: 50 pages/s
	report(t, m, a, 100, time.Second) // gap baseline: 50 pages
	adv := report(t, m, a, 132, time.Second)
	// excess = 132-50-32 = 50 pages at 50 pages/s => 1s wait.
	if adv.Wait != time.Second {
		t.Errorf("wait = %v, want 1s", adv.Wait)
	}
}

func TestWaitCappedPerUpdate(t *testing.T) {
	cfg := testConfig()
	cfg.MaxWaitPerUpdate = 100 * time.Millisecond
	m := MustNewManager(cfg)
	a, _ := startScan(t, m, 1, 5000, 0)
	b, _ := startScan(t, m, 1, 5000, 0)
	report(t, m, b, 10, time.Second)
	report(t, m, a, 500, time.Second) // gap baseline
	adv := report(t, m, a, 900, time.Second)
	if adv.Wait != 100*time.Millisecond {
		t.Errorf("wait = %v, want the 100ms cap", adv.Wait)
	}
}

func TestFairnessCapStopsThrottling(t *testing.T) {
	cfg := testConfig()
	cfg.MaxWaitPerUpdate = time.Hour
	m := MustNewManager(cfg)
	// Leader estimates a 1s total scan: throttle allowance is 0.8s.
	a, _, err := m.StartScan(ScanOpts{Table: 1, TablePages: 5000, EstimatedDuration: time.Second}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := startScan(t, m, 1, 5000, 0)
	report(t, m, b, 50, time.Second)
	report(t, m, a, 500, time.Second) // gap baseline
	adv := report(t, m, a, 1000, time.Second)
	if adv.Wait != 800*time.Millisecond {
		t.Fatalf("first wait = %v, want the 800ms allowance", adv.Wait)
	}
	// Allowance exhausted: no more throttling for a, ever. Close the gap
	// enough that the pair still groups, re-establish a growing gap, and
	// report the leader again.
	report(t, m, b, 600, 2*time.Second)
	report(t, m, a, 1000, 2*time.Second) // gap baseline after b's catch-up
	adv = report(t, m, a, 1100, 2*time.Second)
	if adv.Wait != 0 {
		t.Errorf("throttled beyond fairness cap: %+v", adv)
	}
	if st := m.Stats(); st.FairnessExemptions == 0 {
		t.Errorf("fairness exemption not counted: %+v", st)
	}
}

func TestImportanceScalesFairnessCap(t *testing.T) {
	// Same drift scenario three times; only the leader's importance class
	// varies. The inserted wait must scale with the class's allowance:
	// high < normal < low.
	waitFor := func(imp Importance) time.Duration {
		cfg := testConfig()
		cfg.MaxWaitPerUpdate = time.Hour
		m := MustNewManager(cfg)
		a, _, err := m.StartScan(ScanOpts{
			Table: 1, TablePages: 5000,
			EstimatedDuration: time.Second,
			Importance:        imp,
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := startScan(t, m, 1, 5000, 0)
		report(t, m, b, 50, time.Second)
		report(t, m, a, 500, time.Second) // gap baseline
		return report(t, m, a, 1000, time.Second).Wait
	}
	normal := waitFor(ImportanceNormal)
	low := waitFor(ImportanceLow)
	high := waitFor(ImportanceHigh)
	if normal != 800*time.Millisecond {
		t.Errorf("normal allowance = %v, want 800ms", normal)
	}
	if high != 320*time.Millisecond { // 0.8 * 0.4 * 1s
		t.Errorf("high-importance allowance = %v, want 320ms", high)
	}
	if low <= normal { // 0.8 * 1.5 capped at 1.0 => 1s
		t.Errorf("low-importance allowance %v not larger than normal %v", low, normal)
	}
	if low != time.Second {
		t.Errorf("low allowance = %v, want 1s (capped at 100%%)", low)
	}
}

func TestImportanceValidation(t *testing.T) {
	m := MustNewManager(testConfig())
	_, _, err := m.StartScan(ScanOpts{Table: 1, TablePages: 100, Importance: Importance(42)}, 0)
	if err == nil {
		t.Error("invalid importance accepted")
	}
	for imp, want := range map[Importance]string{
		ImportanceNormal: "normal", ImportanceLow: "low", ImportanceHigh: "high", Importance(9): "Importance(9)",
	} {
		if imp.String() != want {
			t.Errorf("Importance.String() = %q, want %q", imp.String(), want)
		}
	}
}

func TestThrottlingDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.Throttling = false
	m := MustNewManager(cfg)
	a, _ := startScan(t, m, 1, 2000, 0)
	b, _ := startScan(t, m, 1, 2000, 0)
	report(t, m, b, 10, time.Second)
	adv := report(t, m, a, 500, time.Second)
	if adv.Wait != 0 {
		t.Errorf("throttled despite Throttling=false: %+v", adv)
	}
	// Priority hints still apply.
	if adv.Priority != PageHigh {
		t.Errorf("leader priority = %v, want high", adv.Priority)
	}
}

func TestPriorityHintsDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.PriorityHints = false
	m := MustNewManager(cfg)
	a, _ := startScan(t, m, 1, 2000, 0)
	b, _ := startScan(t, m, 1, 2000, 0)
	report(t, m, b, 10, time.Second)
	if adv := report(t, m, a, 50, time.Second); adv.Priority != PageNormal {
		t.Errorf("leader priority = %v, want normal with hints off", adv.Priority)
	}
	if adv := report(t, m, b, 10, time.Second); adv.Priority != PageNormal {
		t.Errorf("trailer priority = %v, want normal with hints off", adv.Priority)
	}
}

func TestSingletonScanGetsNormalPriorityNoWait(t *testing.T) {
	m := MustNewManager(testConfig())
	id, _ := startScan(t, m, 1, 500, 0)
	adv := report(t, m, id, 100, time.Second)
	if adv.Wait != 0 || adv.Priority != PageNormal {
		t.Errorf("singleton advice = %+v", adv)
	}
}

func TestMiddleMemberReleasesHigh(t *testing.T) {
	m := MustNewManager(testConfig())
	a, _ := startScan(t, m, 1, 5000, 0)
	b, _ := startScan(t, m, 1, 5000, 0)
	c, _ := startScan(t, m, 1, 5000, 0)
	// Positions: a=20 (middle), b=30 (leader), c=10 (trailer).
	report(t, m, c, 10, time.Second)
	report(t, m, b, 30, time.Second)
	adv := report(t, m, a, 20, time.Second)
	if adv.Priority != PageHigh {
		t.Errorf("middle member priority = %v, want high (it has a follower)", adv.Priority)
	}
}

func TestWrapAroundDistance(t *testing.T) {
	// A scan that started in the middle and wrapped must still group with
	// a scan near it in circular page order.
	cfg := testConfig()
	m := MustNewManager(cfg)
	a, plA, err := m.StartScan(ScanOpts{Table: 1, TablePages: 1000}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plA.Origin != 0 {
		t.Fatal("expected cold start")
	}
	report(t, m, a, 950, time.Second) // a at page 950
	b, plB := startScan(t, m, 1, 1000, time.Second)
	if plB.JoinedScan != a || plB.Origin != 950 {
		t.Fatalf("b placement = %+v", plB)
	}
	// a wraps: processed 990 -> position (0+990)%1000 = 990; then 1000 would
	// finish. b advances 30 pages: position (950+30)%1000 = 980.
	report(t, m, b, 30, 2*time.Second)
	report(t, m, a, 990, 2*time.Second)
	snap := m.Snapshot()
	if len(snap.Groups) != 1 {
		t.Fatalf("scans near wrap point did not group: %s", snap)
	}
	g := snap.Groups[0]
	if g.Leader != a || g.Trailer != b || g.ExtentPages != 10 {
		t.Errorf("group = %+v, want leader %d trailer %d extent 10", g, a, b)
	}
}

func TestEstTotalTimeFallsBackToObservedSpeed(t *testing.T) {
	cfg := testConfig()
	cfg.MaxWaitPerUpdate = time.Hour
	m := MustNewManager(cfg)
	a, _ := startScan(t, m, 1, 10000, 0) // no duration estimate
	b, _ := startScan(t, m, 1, 10000, 0)
	report(t, m, a, 500, 500*time.Millisecond) // gap baseline; speed 1000
	report(t, m, b, 100, time.Second)
	// Leader speed 1000 pages/s over 10000 pages -> est total 10s,
	// allowance 8s. The raw wait (excess 868 pages at 100 pages/s = 8.68s)
	// must be clipped to the allowance.
	adv := report(t, m, a, 1000, time.Second)
	if adv.Wait != 8*time.Second {
		t.Errorf("wait = %v, want 8s (fairness allowance from observed speed)", adv.Wait)
	}
}

func TestAdaptiveReportingInterval(t *testing.T) {
	cfg := testConfig() // extent 16
	cfg.AdaptiveReporting = true
	m := MustNewManager(cfg)
	// A lone scan gets a stretched interval.
	a, _ := startScan(t, m, 1, 2000, 0)
	adv := report(t, m, a, 16, time.Second)
	if adv.NextReportPages != 64 {
		t.Errorf("lone scan interval = %d, want 64 (4 extents)", adv.NextReportPages)
	}
	// A second scan on the same table snaps it back to one extent.
	startScan(t, m, 1, 2000, time.Second)
	adv = report(t, m, a, 32, 2*time.Second)
	if adv.NextReportPages != 16 {
		t.Errorf("partnered scan interval = %d, want 16", adv.NextReportPages)
	}
	// A scan on a different table does not count as a partner.
	m2 := MustNewManager(cfg)
	b, _ := startScan(t, m2, 1, 2000, 0)
	startScan(t, m2, 2, 2000, 0)
	if adv := report(t, m2, b, 16, time.Second); adv.NextReportPages != 64 {
		t.Errorf("cross-table interval = %d, want 64", adv.NextReportPages)
	}
}

func TestFixedReportingIntervalByDefault(t *testing.T) {
	m := MustNewManager(testConfig())
	a, _ := startScan(t, m, 1, 2000, 0)
	if adv := report(t, m, a, 16, time.Second); adv.NextReportPages != 16 {
		t.Errorf("interval = %d, want the extent", adv.NextReportPages)
	}
	if st := m.Stats(); st.ProgressReports != 1 {
		t.Errorf("ProgressReports = %d", st.ProgressReports)
	}
}

func TestEventsTraceDecisions(t *testing.T) {
	cfg := testConfig()
	cfg.MaxWaitPerUpdate = time.Hour
	var events []Event
	cfg.OnEvent = func(ev Event) { events = append(events, ev) }
	m := MustNewManager(cfg)

	a, _ := startScan(t, m, 1, 5000, 0)
	b, _ := startScan(t, m, 1, 5000, 0)
	report(t, m, b, 50, time.Second)
	report(t, m, a, 500, time.Second)  // gap baseline
	report(t, m, a, 1000, time.Second) // throttle
	m.EndScan(b, 2*time.Second)
	m.EndScan(a, 2*time.Second)

	var kinds []EventKind
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
	}
	// b joins a and overtakes it on its first report, so the group forms
	// with b in front and the roles swap once a's own report lands.
	want := []EventKind{
		EventScanStarted, EventScanStarted,
		EventGroupFormed, EventLeaderHandoff, EventTrailerHandoff,
		EventThrottled, EventScanEnded, EventScanEnded,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d events %v, want %v", len(kinds), kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	// The join placement must be visible in the started event.
	if events[1].Placement.JoinedScan != a && events[1].Placement.TrailingScan != a {
		t.Errorf("second start event placement = %+v", events[1].Placement)
	}
	form := events[2]
	if len(form.Members) != 2 || form.Scan != b || form.Peer != a {
		t.Errorf("group-formed event = %+v, want leader %d trailer %d", form, b, a)
	}
	if lh := events[3]; lh.Scan != a || lh.Peer != b {
		t.Errorf("leader-handoff event = %+v, want %d -> %d", lh, b, a)
	}
	if th := events[4]; th.Scan != b || th.Peer != a {
		t.Errorf("trailer-handoff event = %+v, want %d -> %d", th, a, b)
	}
	th := events[5]
	if th.Scan != a || th.Wait <= 0 || th.GapPages <= 0 {
		t.Errorf("throttle event = %+v", th)
	}
	for _, ev := range events {
		if ev.String() == "" {
			t.Error("event renders empty")
		}
	}
}

func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{
		EventScanStarted: "scan-started", EventScanEnded: "scan-ended",
		EventThrottled: "throttled", EventFairnessExempted: "fairness-exempted",
		EventGroupFormed: "group-formed", EventGroupMerged: "group-merged",
		EventGroupSplit: "group-split", EventLeaderHandoff: "leader-handoff",
		EventTrailerHandoff: "trailer-handoff",
		EventKind(99):       "EventKind(99)",
	} {
		if k.String() != want {
			t.Errorf("EventKind.String() = %q, want %q", k.String(), want)
		}
	}
}

// TestAppendScans: the reader the predictive pool plans evictions by reports
// every attached scan's range, origin, progress and speed — the measured
// speed once a report has clocked one, the a-priori estimate before — leaves
// detached scans out, and allocates nothing once the caller's slice has room.
func TestAppendScans(t *testing.T) {
	m := MustNewManager(DefaultConfig(1000))
	a, _ := startScan(t, m, 1, 100, 0)
	b, pl, err := m.StartScan(ScanOpts{Table: 2, TablePages: 100, StartPage: 10, EndPage: 50, EstimatedDuration: 4 * time.Second}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := startScan(t, m, 1, 100, 0)
	report(t, m, a, 40, time.Second)
	if err := m.DetachScan(c, time.Second); err != nil {
		t.Fatal(err)
	}

	got, ok := m.AppendScans(nil)
	if !ok || len(got) != 2 {
		t.Fatalf("AppendScans = %+v, want the two attached scans", got)
	}
	want := map[TableID]ScanPosition{
		1: {Table: 1, Start: 0, End: 100, Origin: 0, Processed: 40, Speed: 40},
		2: {Table: 2, Start: 10, End: 50, Origin: pl.Origin, Processed: 0, Speed: 10},
	}
	for _, sp := range got {
		if sp != want[sp.Table] {
			t.Errorf("table %d: got %+v, want %+v", sp.Table, sp, want[sp.Table])
		}
	}

	if err := m.RejoinScan(c, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.EndScan(b, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	buf := make([]ScanPosition, 0, 4)
	if buf, _ = m.AppendScans(buf); len(buf) != 2 {
		t.Errorf("after rejoin and end: %d scans, want 2", len(buf))
	}

	// A busy manager is not waited for.
	m.mu.Lock()
	busy, ok := m.AppendScans(buf[:0])
	m.mu.Unlock()
	if ok || len(busy) != 0 {
		t.Errorf("AppendScans on a busy manager = %d scans, %v; want none, false", len(busy), ok)
	}

	if heaptest.RaceEnabled {
		return // the race detector changes allocation counts
	}
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = m.AppendScans(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendScans allocates %v times, want 0", allocs)
	}
}

// TestMoveOrigin: a scan can be re-placed before its first report — its
// position follows the new origin — and not after; the origin must lie in
// the scan's range.
func TestMoveOrigin(t *testing.T) {
	m := MustNewManager(DefaultConfig(1000))
	id, _, err := m.StartScan(ScanOpts{Table: 1, TablePages: 100, StartPage: 10, EndPage: 90}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{9, 90} {
		if err := m.MoveOrigin(id, bad); err == nil {
			t.Errorf("MoveOrigin(%d) outside [10,90) succeeded", bad)
		}
	}
	if err := m.MoveOrigin(id+1, 50); err == nil {
		t.Error("MoveOrigin of an unknown scan succeeded")
	}
	if err := m.MoveOrigin(id, 85); err != nil {
		t.Fatal(err)
	}
	report(t, m, id, 8, time.Millisecond)
	if pos := m.Snapshot().Scans[0].Position; pos != 13 {
		t.Errorf("position after 8 pages from 85 in [10,90) = %d, want 13", pos)
	}
	if err := m.MoveOrigin(id, 50); err == nil {
		t.Error("MoveOrigin after a progress report succeeded")
	}
}
