package main

import (
	"encoding/json"
	"regexp"
)

// Workload names, normative: later PRs claim gains against these.
const (
	wlSim      = "sim_streams"
	wlShared   = "rt_shared_agg"
	wlDisjoint = "rt_disjoint_agg"
	wlServe    = "serve_closed"
)

// workloadInfo is one row of the workload table: the name and the one-line
// reason it exists, as BENCHMARK.json records it.
type workloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadInfo{
	{wlSim, "I/O-bound paper regime (Table 1): virtual-time disk model, Baseline vs Shared; reads, seeks and makespan repeat exactly; exercises exec, sim, disk, buffer, core and bypasses realtime, server, trace"},
	{wlShared, "CPU-bound realtime path: 8 overlapping full scans of one table 20x the pool with a real per-tuple fold, so placement, grouping, throttling and coalescing are all exercised"},
	{wlDisjoint, "control for rt_shared_agg: same fold work on 8 disjoint eighths, nothing can be shared, every page is a pool miss and the sharing manager is pure overhead"},
	{wlServe, "service path end to end over TCP, closed loop: frame decode, compile, admission, per-request scan, pool, store, frame encode; raw scans, so exec is bypassed"},
}

// metricDef declares one metric once: the name it is printed under, its unit,
// which direction is better, where it applies, and — for end-to-end metrics —
// the share of the parent's median by which it may worsen.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the regression bound of an end-to-end metric; zero for
	// per-layer metrics, which are never gated.
	Bound float64
	// On lists the workloads the metric applies to; nil means all four.
	On []string
	// Gated marks the end-to-end metrics that exist on every workload and
	// are steady enough to gate on: they form BENCHMARK.json's end_to_end
	// list. The remaining end-to-end metrics apply to some workloads only, or
	// are too noisy on one of them; the harness reports and self-checks them,
	// and BENCHMARK.json carries them in per_layer, where the driver records
	// them without a bound.
	Gated bool
}

func (d metricDef) appliesTo(wl string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == wl {
			return true
		}
	}
	return false
}

var (
	onSim      = []string{wlSim}
	onServe    = []string{wlServe}
	onRT       = []string{wlShared, wlDisjoint}
	onRealtime = []string{wlShared, wlDisjoint, wlServe}
	onShared   = []string{wlShared}
)

// e2eMetrics are what a user of the system sees. Bounds wider than ISSUE 13
// asked for are each justified by a measured spread in README.md.
var e2eMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "pages_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Gated: true},
	{Name: "allocs_per_page", Unit: "count", Better: "lower", Bound: 0.02, Gated: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10, Gated: true},
	// On every workload, but not gated: on serve_closed identical code reads
	// 1.0 to 1.6 us from one run to the next on a shared host (README.md,
	// "Bounds and measured spreads"), wider than any bound the driver allows.
	{Name: "cpu_us_per_page", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "requests_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, On: onServe},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: onServe},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: onServe},
	{Name: "phys_reads_per_logical_page", Unit: "ratio", Better: "lower", Bound: 0.05, On: []string{wlSim, wlDisjoint, wlServe}},
	{Name: "virtual_makespan_s", Unit: "s", Better: "lower", Bound: 0.001, On: onSim},
	{Name: "read_gain", Unit: "share", Better: "higher", Bound: 0.005, On: onSim},
	{Name: "seek_gain", Unit: "share", Better: "higher", Bound: 0.005, On: onSim},
	{Name: "makespan_gain", Unit: "share", Better: "higher", Bound: 0.005, On: onSim},
	{Name: "failed_share", Unit: "share", Better: "lower", Bound: 0},
}

// layerMetrics are single-layer figures: counters the public API returns,
// harness spans, the program's span tracer, and the isolated probes. A probe
// does not depend on the workload, so it applies to all of them.
var layerMetrics = []metricDef{
	{Name: "buffer.hits", Unit: "count", Better: "higher"},
	{Name: "buffer.misses", Unit: "count", Better: "lower"},
	{Name: "buffer.evictions", Unit: "count", Better: "lower"},
	{Name: "buffer.hit_ratio", Unit: "share", Better: "higher"},
	{Name: "buffer.phys_reads_per_logical_page", Unit: "ratio", Better: "lower"},
	{Name: "buffer.busy_retries", Unit: "count", Better: "lower"},
	{Name: "buffer.all_pinned", Unit: "count", Better: "lower"},
	{Name: "buffer.evictions_high_prio_share", Unit: "share", Better: "lower"},
	{Name: "buffer.optimistic_hit_share", Unit: "share", Better: "higher"},
	{Name: "buffer.acquire_hit_release_ns.map", Unit: "ns", Better: "lower"},
	{Name: "buffer.acquire_hit_release_ns.map_allocs", Unit: "count", Better: "lower"},
	{Name: "buffer.acquire_hit_release_ns.array", Unit: "ns", Better: "lower"},
	{Name: "buffer.acquire_hit_release_ns.array_allocs", Unit: "count", Better: "lower"},
	{Name: "buffer.read_optimistic_ns", Unit: "ns", Better: "lower"},
	{Name: "buffer.read_optimistic_ns_allocs", Unit: "count", Better: "lower"},
	{Name: "buffer.miss_fill_evict_ns", Unit: "ns", Better: "lower"},
	{Name: "buffer.miss_fill_evict_ns_allocs", Unit: "count", Better: "lower"},

	{Name: "core.join_placements_share", Unit: "share", Better: "higher"},
	{Name: "core.throttle_events", Unit: "count", Better: "lower"},
	{Name: "core.throttle_wait_s", Unit: "s", Better: "lower"},
	{Name: "core.fairness_exemptions", Unit: "count", Better: "lower"},
	{Name: "core.progress_reports", Unit: "count", Better: "lower"},
	{Name: "core.report_progress_ns", Unit: "ns", Better: "lower"},
	{Name: "core.start_end_scan_ns", Unit: "ns", Better: "lower"},

	{Name: "disk.reads", Unit: "count", Better: "lower", On: onSim},
	{Name: "disk.seeks", Unit: "count", Better: "lower", On: onSim},
	{Name: "disk.seeks_per_read", Unit: "ratio", Better: "lower", On: onSim},
	{Name: "disk.busy_s", Unit: "s", Better: "lower", On: onSim},
	{Name: "disk.queue_wait_s", Unit: "s", Better: "lower", On: onSim},
	{Name: "disk.read_raw_ns", Unit: "ns", Better: "lower"},

	{Name: "exec.fold_busy_s", Unit: "s", Better: "lower", On: onRT},
	{Name: "exec.fold_ns_per_tuple", Unit: "ns", Better: "lower", On: onRT},
	{Name: "exec.tuples_folded", Unit: "count", Better: "higher", On: onRT},
	{Name: "exec.sim_tuples_per_wall_s", Unit: "1/s", Better: "higher", On: onSim},
	{Name: "exec.group_by_page_ns.private", Unit: "ns", Better: "lower"},
	{Name: "exec.group_by_page_ns.private_allocs", Unit: "count", Better: "lower"},
	{Name: "exec.group_by_page_ns.shared", Unit: "ns", Better: "lower"},
	{Name: "exec.group_by_page_ns.shared_allocs", Unit: "count", Better: "lower"},
	{Name: "heap.view_decode_page_ns", Unit: "ns", Better: "lower"},
	{Name: "heap.view_decode_page_ns_allocs", Unit: "count", Better: "lower"},

	{Name: "realtime.pool_wait_s", Unit: "s", Better: "lower", On: onRealtime},
	{Name: "realtime.read_wait_s", Unit: "s", Better: "lower", On: onRealtime},
	{Name: "realtime.delivery_wait_s", Unit: "s", Better: "lower", On: onRealtime},
	{Name: "realtime.reads_coalesced", Unit: "count", Better: "higher", On: onRealtime},
	{Name: "realtime.prefetch_filled", Unit: "count", Better: "higher", On: onRealtime},
	{Name: "realtime.prefetch_dropped", Unit: "count", Better: "lower", On: onRealtime},
	{Name: "realtime.page_read_p50_us", Unit: "us", Better: "lower", On: onRealtime},
	{Name: "realtime.page_read_p99_us", Unit: "us", Better: "lower", On: onRealtime},
	{Name: "realtime.run_call_overhead_us", Unit: "us", Better: "lower"},

	{Name: "sql.compile_busy_s", Unit: "s", Better: "lower", On: onServe},
	{Name: "sql.parse_compile_ns", Unit: "ns", Better: "lower"},

	{Name: "server.queue_wait_p50_us", Unit: "us", Better: "lower", On: onServe},
	{Name: "server.queue_wait_p99_us", Unit: "us", Better: "lower", On: onServe},
	{Name: "server.admitted", Unit: "count", Better: "higher", On: onServe},
	{Name: "server.shed", Unit: "count", Better: "lower", On: onServe},
	{Name: "server.wire_overhead_p50_us", Unit: "us", Better: "lower", On: onServe},
	{Name: "server.frame_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "server.frame_roundtrip_ns_allocs", Unit: "count", Better: "lower"},

	{Name: "trace.breakdown.queue_s", Unit: "s", Better: "lower", On: onRealtime},
	{Name: "trace.breakdown.compile_s", Unit: "s", Better: "lower", On: onRealtime},
	{Name: "trace.breakdown.throttle_s", Unit: "s", Better: "lower", On: onRealtime},
	{Name: "trace.breakdown.pool_wait_s", Unit: "s", Better: "lower", On: onRealtime},
	{Name: "trace.breakdown.read_s", Unit: "s", Better: "lower", On: onRealtime},
	{Name: "trace.breakdown.delivery_s", Unit: "s", Better: "lower", On: onRealtime},
	{Name: "trace.breakdown.fold_s", Unit: "s", Better: "lower", On: onRealtime},
	{Name: "trace.breakdown.process_s", Unit: "s", Better: "lower", On: onRealtime},
	{Name: "trace.breakdown.gap_s", Unit: "s", Better: "lower", On: onRealtime},
	{Name: "trace.dropped", Unit: "count", Better: "lower", On: onRealtime},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", On: onRealtime},
	{Name: "trace.emit_span_ns", Unit: "ns", Better: "lower"},

	{Name: "sim.wall_s_per_virtual_s", Unit: "ratio", Better: "lower", On: onSim},
	{Name: "sim.sleep_event_ns", Unit: "ns", Better: "lower"},

	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.bytes_per_page", Unit: "B", Better: "lower"},
	{Name: "runtime.goroutines_leaked", Unit: "count", Better: "lower"},

	{Name: "reconcile.process_explained_share", Unit: "share", Better: "higher", On: onShared},
}

// variants is the reduced configuration factorial: one single-axis flip from
// the defaults each, then all of them together. Informational, never gated.
var variantNames = []string{"push", "push_sharestate", "array", "predictive", "shards4", "all"}

func init() {
	for _, v := range variantNames {
		layerMetrics = append(layerMetrics,
			metricDef{Name: "variant." + v + ".pages_per_s", Unit: "1/s", Better: "higher", On: onShared},
			metricDef{Name: "variant." + v + ".phys_reads_per_logical_page", Unit: "ratio", Better: "lower", On: onShared})
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// manifestMetric is one end_to_end or per_layer entry of BENCHMARK.json.
type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// manifest is BENCHMARK.json. It is generated from the registry above
// (`-manifest`), and a test keeps the committed file in step with it.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadInfo   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

// runSeconds is how long one driver run measures at least; see README.md for
// the time budget it was chosen against.
const runSeconds = 20

func gatedMetrics() []metricDef {
	var out []metricDef
	for _, d := range e2eMetrics {
		if d.Gated {
			out = append(out, d)
		}
	}
	return out
}

// ungatedLayerMetrics is what `--trace 1` prints: every per-layer metric, then
// the end-to-end metrics that do not apply to every workload.
func ungatedLayerMetrics() []metricDef {
	out := append([]metricDef(nil), layerMetrics...)
	for _, d := range e2eMetrics {
		if !d.Gated {
			out = append(out, d)
		}
	}
	return out
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, d := range gatedMetrics() {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range ungatedLayerMetrics() {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}

func manifestJSON() []byte {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		panic(err) // the manifest is a literal; it always marshals
	}
	return append(b, '\n')
}
