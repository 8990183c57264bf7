package experiments

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// sharedThroughput caches one throughput pair at test scale; several shape
// tests read different views of the same pair.
var (
	tpOnce sync.Once
	tpVal  *Throughput
	tpErr  error
)

func testThroughput(t *testing.T) *Throughput {
	t.Helper()
	tpOnce.Do(func() { tpVal, tpErr = RunThroughput(TestParams()) })
	if tpErr != nil {
		t.Fatal(tpErr)
	}
	return tpVal
}

func TestParamsValidation(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Error(err)
	}
	if err := TestParams().Validate(); err != nil {
		t.Error(err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Scale = 0 },
		func(p *Params) { p.Streams = 0 },
		func(p *Params) { p.BufferFrac = 0 },
		func(p *Params) { p.BufferFrac = 3 },
		func(p *Params) { p.StaggerFrac = -1 },
		func(p *Params) { p.ExtentPages = -1 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestLookup(t *testing.T) {
	for _, want := range []string{"T1", "F15", "F16", "F17", "F18", "F19", "F20", "OV", "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8"} {
		spec, err := Lookup(want)
		if err != nil || spec.ID != want {
			t.Errorf("Lookup(%s) = %+v, %v", want, spec, err)
		}
	}
	if _, err := Lookup("Z9"); err == nil {
		t.Error("unknown experiment found")
	}
	if len(All()) != 16 {
		t.Errorf("All() has %d experiments, want 16", len(All()))
	}
}

// A6: both placement policies must beat the baseline; neither should be
// drastically worse than the other.
func TestShapePlacementPolicies(t *testing.T) {
	r, err := PlacementPolicies(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.HeuristicGain < 0.1 {
		t.Errorf("heuristic gain %.1f%%, want > 10%%", r.HeuristicGain*100)
	}
	if r.EstimateGain < 0.1 {
		t.Errorf("estimator gain %.1f%%, want > 10%%", r.EstimateGain*100)
	}
	if r.EstimateReads >= r.BaseReads {
		t.Error("estimator policy did not reduce reads over baseline")
	}
}

// A8: three policy variants over identical seeded streams in virtual time.
// The runs are exact, so two seeded runs must agree to the last read, and
// every variant must process the same logical pages.
func TestShapePredictivePolicyAB(t *testing.T) {
	r, err := PredictivePolicyAB(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	again, err := PredictivePolicyAB(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, again) {
		t.Errorf("two seeded runs differ:\n%+v\n%+v", r.Runs, again.Runs)
	}
	if len(r.Runs) != 3 {
		t.Fatalf("got %d runs, want 3", len(r.Runs))
	}
	wantPages := int64(r.Scans * r.Pages)
	for _, run := range r.Runs {
		if run.LogicalReads != wantPages {
			t.Errorf("%s: read %d logical pages, want %d", run.Label, run.LogicalReads, wantPages)
		}
		if run.HitRatio <= 0 || run.HitRatio > 1 {
			t.Errorf("%s: hit ratio %.3f out of range", run.Label, run.HitRatio)
		}
		if run.Reads <= 0 || run.Makespan <= 0 {
			t.Errorf("%s: %d disk reads in %v", run.Label, run.Reads, run.Makespan)
		}
	}
	if r.Runs[0].Policy != "priority-lru" || r.Runs[1].Policy != "predictive" {
		t.Errorf("unexpected policy order: %+v", r.Runs)
	}
}

// T1: the headline table. Paper: end-to-end +21%, reads +33%, seeks +34%.
// At test scale we assert the direction and a conservative magnitude.
func TestShapeTable1(t *testing.T) {
	r := testThroughput(t).Table1()
	if r.EndToEndGain < 0.15 {
		t.Errorf("end-to-end gain %.1f%%, want >= 15%%", r.EndToEndGain*100)
	}
	if r.ReadGain < 0.15 {
		t.Errorf("disk read gain %.1f%%, want >= 15%%", r.ReadGain*100)
	}
	if r.SeekGain < 0.15 {
		t.Errorf("disk seek gain %.1f%%, want >= 15%%", r.SeekGain*100)
	}
	if r.SharedMakespan >= r.BaseMakespan {
		t.Error("shared run not faster than base")
	}
	if !strings.Contains(r.Render(), "Table 1") {
		t.Error("render missing table reference")
	}
}

// F15: staggered I/O-bound queries. Paper: each run gains > 50%, I/O wait
// share roughly halves.
func TestShapeFigure15(t *testing.T) {
	r, err := Figure15(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.MinGain() < 0.5 {
		t.Errorf("min per-run gain %.1f%%, want > 50%%", r.MinGain()*100)
	}
	if r.SharedBreakdown.WaitShare() >= r.BaseBreakdown.WaitShare() {
		t.Errorf("wait share did not drop: base %.2f shared %.2f",
			r.BaseBreakdown.WaitShare(), r.SharedBreakdown.WaitShare())
	}
	if r.BaseBreakdown.CPU != r.SharedBreakdown.CPU {
		t.Errorf("CPU work differs between modes: %v vs %v",
			r.BaseBreakdown.CPU, r.SharedBreakdown.CPU)
	}
	if r.Stagger <= 0 {
		t.Error("stagger not calibrated")
	}
}

// F16: staggered CPU-bound queries. Paper: wait share is small but sharing
// still improves every run noticeably.
func TestShapeFigure16(t *testing.T) {
	r, err := Figure16(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.MinGain() < 0.2 {
		t.Errorf("min per-run gain %.1f%%, want > 20%%", r.MinGain()*100)
	}
	if r.SharedBreakdown.WaitShare() >= r.BaseBreakdown.WaitShare() {
		t.Error("wait share did not drop")
	}
	// CPU-bound: in the shared run CPU dominates the wait components.
	if r.SharedBreakdown.CPU < r.SharedBreakdown.IO {
		t.Errorf("Q1 analog not CPU-bound when shared: cpu=%v io=%v",
			r.SharedBreakdown.CPU, r.SharedBreakdown.IO)
	}
}

// F17/F18: activity over time. Paper: shared activity is lower overall and
// the run ends sooner.
func TestShapeFigures17And18(t *testing.T) {
	tp := testThroughput(t)
	for _, r := range []*SeriesResult{tp.Figure17(), tp.Figure18()} {
		base, shared := r.Totals()
		if shared >= base {
			t.Errorf("%s: shared total %.0f >= base %.0f", r.ID, shared, base)
		}
		if !r.EndsSooner() {
			t.Errorf("%s: shared run does not end sooner", r.ID)
		}
		if len(r.Buckets) != len(r.BaseValues) || len(r.Buckets) != len(r.SharedValues) {
			t.Errorf("%s: misaligned series", r.ID)
		}
		if !strings.Contains(r.Render(), "#") {
			t.Errorf("%s: render has no bars", r.ID)
		}
	}
}

// F19: per-stream gains. Paper: every stream gains, roughly evenly.
func TestShapeFigure19(t *testing.T) {
	r := testThroughput(t).Figure19()
	if len(r.Streams) != TestParams().Streams {
		t.Fatalf("got %d streams", len(r.Streams))
	}
	if r.MinGain() < 0.1 {
		t.Errorf("min stream gain %.1f%%, want > 10%%", r.MinGain()*100)
	}
	min, max := 1.0, -1.0
	for _, s := range r.Streams {
		if s.Gain < min {
			min = s.Gain
		}
		if s.Gain > max {
			max = s.Gain
		}
	}
	if max-min > 0.15 {
		t.Errorf("stream gains uneven: spread %.1f%% (min %.1f%%, max %.1f%%)",
			(max-min)*100, min*100, max*100)
	}
}

// F20: per-query gains. Paper: no query shows a negative effect. At test
// scale the sub-1%-of-workload queries carry scheduling noise, so the
// assertion distinguishes substantial queries (which must all gain) from
// tiny ones (which may wobble a little).
func TestShapeFigure20(t *testing.T) {
	r := testThroughput(t).Figure20()
	if len(r.Queries) != 22 {
		t.Fatalf("got %d queries", len(r.Queries))
	}
	var sum float64
	for _, q := range r.Queries {
		sum += q.Gain
		if q.Base >= time.Second && q.Gain <= 0 {
			t.Errorf("substantial query %s regressed: %.1f%%", q.Name, q.Gain*100)
		}
	}
	if mean := sum / float64(len(r.Queries)); mean < 0.1 {
		t.Errorf("mean per-query gain %.1f%%, want > 10%%", mean*100)
	}
	if worst := r.WorstGain(); worst < -0.4 {
		t.Errorf("worst per-query regression %.1f%%, beyond noise allowance", worst*100)
	}
}

// OV: the sharing machinery must not slow down a lone stream.
func TestShapeOverhead(t *testing.T) {
	r, err := Overhead(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Overhead > 0.01 || r.Overhead < -0.05 {
		t.Errorf("single-stream overhead %.2f%%, want within (-5%%, 1%%)", r.Overhead*100)
	}
}

// A1: throttling must reduce disk reads on drift-prone scan pairs.
func TestShapeAblationThrottle(t *testing.T) {
	r, err := AblationNoThrottle(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.ReadPenalty < 0.05 {
		t.Errorf("read penalty without throttling %.1f%%, want > 5%%", r.ReadPenalty*100)
	}
	if r.FullHitRatio <= r.AblatedHitRatio {
		t.Error("throttling did not improve the hit ratio")
	}
}

// A2: priority hints must reduce disk reads under churn.
func TestShapeAblationPriority(t *testing.T) {
	r, err := AblationNoPriority(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.ReadPenalty < 0.01 {
		t.Errorf("read penalty without hints %.1f%%, want > 1%%", r.ReadPenalty*100)
	}
}

// A3: placement must matter on widely staggered scans.
func TestShapeAblationPlacement(t *testing.T) {
	r, err := AblationNoPlacement(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.ReadPenalty < 0.1 {
		t.Errorf("read penalty without placement %.1f%%, want > 10%%", r.ReadPenalty*100)
	}
	if r.TimePenalty < 0.5 {
		t.Errorf("time penalty without placement %.1f%%, want > 50%%", r.TimePenalty*100)
	}
}

// A4: the buffer sweep must show the crossover — strong gains when the pool
// is a few percent of the database, converging to parity once everything
// fits.
func TestShapeBufferSweep(t *testing.T) {
	r, err := BufferSweep(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 5 {
		t.Fatalf("sweep has %d points", len(r.Points))
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if first.ReadGain < 0.2 {
		t.Errorf("smallest-pool read gain %.1f%%, want > 20%%", first.ReadGain*100)
	}
	if last.ReadGain > 0.05 || last.ReadGain < -0.05 {
		t.Errorf("full-database read gain %.1f%%, want ~0 (crossover)", last.ReadGain*100)
	}
	if last.TimeGain > 0.1 || last.TimeGain < -0.1 {
		t.Errorf("full-database time gain %.1f%%, want ~0", last.TimeGain*100)
	}
	if first.ReadGain <= last.ReadGain {
		t.Error("gain does not shrink as the pool grows")
	}
}

// A5: tight thresholds must hold drifting groups together at least as well
// as loose ones.
func TestShapeThrottleSweep(t *testing.T) {
	r, err := ThrottleSweep(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 4 {
		t.Fatalf("sweep has %d points", len(r.Points))
	}
	tight, loose := r.Points[0], r.Points[len(r.Points)-1]
	if tight.ReadGain < loose.ReadGain {
		t.Errorf("tight threshold (%.1f%%) worse than loose (%.1f%%)",
			tight.ReadGain*100, loose.ReadGain*100)
	}
	if tight.ReadGain <= 0 {
		t.Errorf("tight threshold shows no gain: %.1f%%", tight.ReadGain*100)
	}
}

// A7: the sharing gain must widen with concurrency — more overlapping scans
// mean more reuse — and be near zero for a single stream.
func TestShapeStreamSweep(t *testing.T) {
	r, err := StreamSweep(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	solo := r.GainAt(1)
	if solo > 0.02 || solo < -0.02 {
		t.Errorf("single-stream gain %.1f%%, want ~0", solo*100)
	}
	if r.GainAt(8) <= r.GainAt(2) {
		t.Errorf("gain does not widen with streams: 2->%.1f%%, 8->%.1f%%",
			r.GainAt(2)*100, r.GainAt(8)*100)
	}
	if r.GainAt(8) < 0.25 {
		t.Errorf("8-stream gain %.1f%%, want > 25%%", r.GainAt(8)*100)
	}
}

// Determinism: the same experiment renders identically across runs.
func TestExperimentsAreDeterministic(t *testing.T) {
	p := TestParams()
	p.Scale = 0.5
	run := func() string {
		tp, err := RunThroughput(p)
		if err != nil {
			t.Fatal(err)
		}
		return tp.Table1().Render() + tp.Figure19().Render()
	}
	first := run()
	if again := run(); again != first {
		t.Fatalf("non-deterministic experiment:\n%s\nvs\n%s", first, again)
	}
}

// Every experiment result must export plottable CSV, with a header row and
// at least one data row per file.
func TestAllResultsExportCSV(t *testing.T) {
	p := TestParams()
	p.Scale = 0.5
	seen := map[string]bool{}
	for _, spec := range []string{"T1", "F17", "F19", "F20", "OV", "A1", "A4", "A6", "A7", "F15"} {
		s, err := Lookup(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		exp, ok := res.(CSVExporter)
		if !ok {
			t.Errorf("%s result does not export CSV", spec)
			continue
		}
		for name, content := range exp.CSV() {
			if seen[name] {
				t.Errorf("duplicate CSV file name %q", name)
			}
			seen[name] = true
			lines := strings.Split(strings.TrimRight(content, "\n"), "\n")
			if len(lines) < 2 {
				t.Errorf("%s/%s has %d lines", spec, name, len(lines))
			}
			cols := strings.Count(lines[0], ",")
			for i, line := range lines {
				if strings.Count(line, ",") != cols {
					t.Errorf("%s/%s line %d has inconsistent columns", spec, name, i)
					break
				}
			}
		}
	}
}

// The headline gains must survive CPU contention: on a paper-like 4-core
// box the baseline CPU-bound phases slow down, but sharing still wins.
func TestShapeTable1WithBoundedCores(t *testing.T) {
	p := TestParams()
	p.Cores = 4
	tp, err := RunThroughput(p)
	if err != nil {
		t.Fatal(err)
	}
	r := tp.Table1()
	if r.EndToEndGain < 0.15 || r.ReadGain < 0.15 {
		t.Errorf("gains under 4 cores: time %.1f%%, reads %.1f%%",
			r.EndToEndGain*100, r.ReadGain*100)
	}
}
