package main

import (
	"bytes"
	"math"
	"os"
	"testing"
	"time"

	"scanshare"
)

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1500, 99}, // 15 beyond p99
		{1000, 99}, // exactly 10 beyond
		{999, 95},  // only 9 beyond p99
		{200, 95},
		{100, 90},
		{60, 75},
		{20, 50},
		{5, 50}, // nothing qualifies: the median is the fallback
	} {
		if got := highestPercentile(c.n, 99); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := highestPercentile(1_000_000, 99); got != 99 {
		t.Errorf("limit not honoured: %v", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("nearest-rank p90 of 1..100 = %v, want 90", got)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("got q1=%v median=%v q3=%v", q1, median(xs), q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("three samples: q1=%v q3=%v", q1, q3)
	}
	if s := spreadShare([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread share = %v, want 1", s)
	}
}

func TestServeMixIsAFunctionOfTheSeed(t *testing.T) {
	a, b := serveMix(42, serveRequests), serveMix(42, serveRequests)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed gave different request sequences")
	}
	if bytes.Equal(a, serveMix(43, serveRequests)) {
		t.Fatal("different seeds gave the same request sequence")
	}
	counts := make([]int, len(serveStatements))
	for _, k := range a {
		counts[k]++
	}
	for k, st := range serveStatements {
		if got := float64(counts[k]) / serveRequests; math.Abs(got-st.share) > 0.05 {
			t.Errorf("statement %d: share %.3f, want about %.2f", k, got, st.share)
		}
	}
}

func TestManifestMatchesRegistry(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifestJSON()) {
		t.Error("BENCHMARK.json is out of step with the registry; regenerate it with `bash benchmark/run.sh -manifest > BENCHMARK.json`")
	}
	m := buildManifest()
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	hasSetup := false
	for _, list := range [][]manifestMetric{m.EndToEnd, m.PerLayer} {
		for _, d := range list {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
			}
			if seen[d.Name] {
				t.Errorf("metric name %q used twice", d.Name)
			}
			seen[d.Name] = true
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
		}
	}
	for _, d := range m.EndToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, w := range m.Workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: bad name, reused name or why longer than 200", w.Name)
		}
		seen[w.Name] = true
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	// root [0,100] holds a [10,40] and b [30,60] (overlapping: they cover
	// [10,60] once) and c [70,80]; a holds leaf [15,25].
	spans := []span{
		{ID: -1, Name: "harness.root", Start: 0, End: 100},
		{ID: -2, Parent: -1, Name: "server.a", Start: 10, End: 40},
		{ID: -3, Parent: -1, Name: "server.b", Start: 30, End: 60},
		{ID: -4, Parent: -1, Name: "sql.c", Start: 70, End: 80},
		{ID: -5, Parent: -2, Name: "buffer.leaf", Start: 15, End: 25},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"harness": 100 - 50 - 10, // minus [10,60] and [70,80]
		"server":  (30 - 10) + 30,
		"sql":     10,
		"buffer":  10,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %d of them", got, len(want))
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v, v} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady(100), steady(101), "ok"},
		{"slower", lower, steady(100), steady(120), "FAIL"},
		{"faster", lower, steady(100), steady(80), "ok"},
		{"rate fell", higher, steady(100), steady(80), "FAIL"},
		{"rate rose", higher, steady(100), steady(130), "ok"},
		{"too noisy to tell", lower, []float64{80, 90, 100, 110, 120}, steady(120), "unresolved"},
		{"a failure appeared", metricDef{Name: "failed_share", Better: "lower"}, []float64{0, 0, 0}, []float64{0, 0.1, 0.1}, "FAIL"},
		{"no failures", metricDef{Name: "failed_share", Better: "lower"}, []float64{0, 0, 0}, []float64{0, 0, 0}, "ok"},
	} {
		if got := judge(c.d, c.a, c.b).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestOracleHelpers(t *testing.T) {
	row := func(flag string, sum float64, n int64) scanshare.Tuple {
		return scanshare.Tuple{scanshare.String(flag), scanshare.Float64(sum), scanshare.Int64(n)}
	}
	want := []scanshare.Tuple{row("A", 30, 3), row("N", 5, 1)}
	merged := mergePartials([][]scanshare.Tuple{{row("N", 5, 1), row("A", 10, 1)}, {row("A", 20, 2)}}, 1)
	if d := rowsDiffer(merged, want); d != "" {
		t.Errorf("merged partials: %s", d)
	}
	if d := rowsDiffer([]scanshare.Tuple{row("A", 30*(1+1e-12), 3), row("N", 5, 1)}, want); d != "" {
		t.Errorf("rounding noise rejected: %s", d)
	}
	if rowsDiffer([]scanshare.Tuple{row("A", 30.001, 3), row("N", 5, 1)}, want) == "" {
		t.Error("a wrong sum passed")
	}
	if rowsDiffer([]scanshare.Tuple{row("A", 30, 4), row("N", 5, 1)}, want) == "" {
		t.Error("a wrong count passed")
	}
	if rowsDiffer(want[:1], want) == "" {
		t.Error("a missing group passed")
	}
}

// TestQuickSmoke runs all three passes over all four workloads at the smoke
// size with the oracles on, and checks the registry against what was emitted:
// every metric that applies to a workload appears there, and nothing else.
func TestQuickSmoke(t *testing.T) {
	start := time.Now()
	h := &harness{seed: 42, quick: true, outDir: t.TempDir(), probeTime: 20 * time.Millisecond}
	names, _ := selectWorkloads("")
	doc := document{Workloads: map[string]*workloadDoc{}}
	for _, n := range names {
		doc.Workloads[n] = &workloadDoc{}
	}
	if !h.e2ePass(&doc, names, 1) || !h.layersPass(&doc) || !h.tracedPass(&doc, names) {
		for n, w := range doc.Workloads {
			t.Errorf("%s: %v", n, w.Problems)
		}
		t.Fatal("a pass reported failed operations")
	}
	for _, n := range names {
		w := doc.Workloads[n]
		for _, d := range e2eMetrics {
			if _, have := w.E2E[d.Name]; have != d.appliesTo(n) {
				t.Errorf("%s: end-to-end metric %s emitted=%v, applies=%v", n, d.Name, have, d.appliesTo(n))
			}
		}
		for _, d := range layerMetrics {
			_, inLayers := w.Layers[d.Name]
			_, inProbes := doc.Probes[d.Name]
			if inLayers && inProbes {
				t.Errorf("%s: %s emitted by both the traced pass and a probe", n, d.Name)
			}
			if have := inLayers || inProbes; have != d.appliesTo(n) {
				t.Errorf("%s: per-layer metric %s emitted=%v, applies=%v", n, d.Name, have, d.appliesTo(n))
			}
		}
		for name := range w.Layers {
			if unitOf(name) == "" {
				t.Errorf("%s: emitted %s, which the registry does not declare", n, name)
			}
		}
		if s := w.E2E["failed_share"]; s.Median != 0 {
			t.Errorf("%s: failed_share %v", n, s.Median)
		}
		if w.Layers["runtime.goroutines_leaked"] != 0 {
			t.Errorf("%s: leaked goroutines", n)
		}
		spans, err := os.ReadFile(w.SpansFile)
		if err != nil || len(spans) == 0 {
			t.Errorf("%s: span file %q: %v", n, w.SpansFile, err)
		}
	}
	t.Logf("quick smoke took %v", time.Since(start))
}
