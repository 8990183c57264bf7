package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"
	"unsafe"

	"scanshare/internal/buffer"
	"scanshare/internal/metrics"
)

// This file is a hand-rolled Prometheus text-format (version 0.0.4)
// exporter — no client library dependency, because the engine's metric
// surface is small and fixed and the format is plain text. Counters map to
// `_total` counters, live state to gauges, and the latency histograms to
// Prometheus summaries (pre-computed quantiles, which is what the
// fixed-footprint log-bucket histogram can answer exactly).
//
// Output order is deterministic: metric families in the order written
// below, pool label sets sorted by pool name, shard labels in shard order.
// The golden test pins the exposition byte-for-byte, so renames here are a
// reviewed, visible diff — dashboards break loudly, not silently.

// Handler returns an http.Handler serving the current state of src as
// Prometheus text exposition, for mounting at /metrics.
func Handler(src Sources) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		bw := bufio.NewWriter(w)
		WriteMetrics(bw, src)
		bw.Flush()
	})
}

// WriteMetrics renders one exposition of src to w.
func WriteMetrics(w io.Writer, src Sources) {
	var cs metrics.CollectorStats
	if src.Collector != nil {
		cs = src.Collector.Snapshot()
	}

	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	// Scan worker activity (the realtime collector).
	for i := range metrics.CollectorCounters {
		d := &metrics.CollectorCounters[i]
		declare(w, d.Name, d.Help, d.Kind.PromType())
		fmt.Fprintf(w, "%s %s\n", d.Name, value(d.Kind, *d.At(&cs)))
	}
	gauge("scanshare_prefetch_queue_depth", "Extents currently waiting in the prefetch queue.", cs.PrefetchQueueDepth())

	// Latency distributions as summaries.
	summary(w, "scanshare_page_read_latency_seconds", "Physical read time of missed pages.", cs.PageReadLatency)
	summary(w, "scanshare_throttle_wait_latency_seconds", "Per-event SSM-inserted wait durations.", cs.ThrottleWaitDist)
	summary(w, "scanshare_prefetch_queue_delay_seconds", "Enqueue-to-pickup delay of prefetch extents.", cs.PrefetchQueueDelay)

	// Buffer pools: aggregate counters per pool, occupancy per shard.
	pools := make([]PoolSource, len(src.Pools))
	copy(pools, src.Pools)
	sort.Slice(pools, func(i, j int) bool { return pools[i].Name < pools[j].Name })
	writePools(w, pools)

	// Per-tenant admission control (serve mode): families appear only when a
	// tenant source is wired, so the pre-serve exposition — and its golden —
	// is byte-identical.
	if src.Tenants != nil {
		writeTenants(w, src.Tenants())
	}

	// Scan sharing state: live gauges from one consistent snapshot.
	if src.Sharing != nil {
		snap := src.Sharing()
		gauge("scanshare_scans_active", "Scans currently registered with a sharing manager.", int64(len(snap.Scans)))
		gauge("scanshare_scans_detached", "Registered scans currently detached from group coordination.", int64(snap.DetachedScans()))
		gauge("scanshare_scan_groups", "Scan groups currently formed.", int64(len(snap.Groups)))
		gauge("scanshare_grouped_scans", "Scans currently members of some group.", int64(snap.GroupedScans()))
		gauge("scanshare_group_max_gap_pages", "Largest leader-trailer distance across groups, in pages.", int64(snap.MaxGroupGap()))
	}
}

// writeTenants renders the per-tenant admission families: counters for the
// admitted/queued/shed decisions, a running gauge, and the queue-wait
// summary. Tenant order is the source's (sorted by name upstream), so the
// exposition is deterministic.
func writeTenants(w io.Writer, tenants []metrics.TenantStats) {
	if len(tenants) == 0 {
		return
	}
	family := func(d *metrics.Desc[metrics.TenantStats]) {
		declare(w, d.Name, d.Help, d.Kind.PromType())
		for i := range tenants {
			fmt.Fprintf(w, "%s{tenant=%q} %s\n", d.Name, tenants[i].Name, value(d.Kind, *d.At(&tenants[i])))
		}
	}
	// The admission counters and the running gauge, then the queue-wait
	// summary, then the latency breakdown: cumulative seconds per
	// component, the live counterpart of the span assembler's per-query
	// attribution.
	for i := range metrics.TenantCounters {
		if d := &metrics.TenantCounters[i]; d.Kind != metrics.KindSeconds {
			family(d)
		}
	}

	fmt.Fprintf(w, "# HELP scanshare_tenant_queue_wait_seconds Admission-queue wait of admitted requests.\n# TYPE scanshare_tenant_queue_wait_seconds summary\n")
	for _, t := range tenants {
		for _, q := range []struct {
			label string
			v     time.Duration
		}{
			{"0.5", t.QueueWait.P50}, {"0.9", t.QueueWait.P90}, {"0.99", t.QueueWait.P99}, {"1", t.QueueWait.Max},
		} {
			fmt.Fprintf(w, "scanshare_tenant_queue_wait_seconds{tenant=%q,quantile=%q} %s\n", t.Name, q.label, formatFloat(q.v.Seconds()))
		}
		fmt.Fprintf(w, "scanshare_tenant_queue_wait_seconds_sum{tenant=%q} %s\n", t.Name, formatFloat(t.QueueWait.Sum.Seconds()))
		fmt.Fprintf(w, "scanshare_tenant_queue_wait_seconds_count{tenant=%q} %d\n", t.Name, t.QueueWait.Count)
	}

	for i := range metrics.TenantCounters {
		if d := &metrics.TenantCounters[i]; d.Kind == metrics.KindSeconds {
			family(d)
		}
	}
}

// poolLabel renders the pool-name label value; the default pool's empty
// name becomes "default" so the label is never empty.
func poolLabel(name string) string {
	if name == "" {
		return "default"
	}
	return name
}

// poolCounters declares the per-pool counter families over the shards'
// aggregated buffer.Stats, in exposition order; one sample per pool.
var poolCounters = [...]metrics.Desc[buffer.Stats]{
	{Name: "scanshare_pool_logical_reads_total", Help: "Pool acquires that returned hit or miss.", Off: unsafe.Offsetof(buffer.Stats{}.LogicalReads)},
	{Name: "scanshare_pool_hits_total", Help: "Pool acquires served from a resident frame.", Off: unsafe.Offsetof(buffer.Stats{}.Hits)},
	{Name: "scanshare_pool_misses_total", Help: "Pool acquires that reserved a frame for a physical read.", Off: unsafe.Offsetof(buffer.Stats{}.Misses)},
	{Name: "scanshare_pool_aborts_total", Help: "Misses whose physical read failed.", Off: unsafe.Offsetof(buffer.Stats{}.Aborts)},
	{Name: "scanshare_pool_busy_retries_total", Help: "Pool acquires that returned busy.", Off: unsafe.Offsetof(buffer.Stats{}.BusyRetries)},
	{Name: "scanshare_pool_all_pinned_total", Help: "Pool acquires that found every frame pinned.", Off: unsafe.Offsetof(buffer.Stats{}.AllPinned)},
	{Name: "scanshare_pool_optimistic_hits_total", Help: "Hits served by the lock-free optimistic read path (array translation).", Off: unsafe.Offsetof(buffer.Stats{}.OptimisticHits)},
	{Name: "scanshare_pool_optimistic_retries_total", Help: "Optimistic read validations that failed and retried.", Off: unsafe.Offsetof(buffer.Stats{}.OptimisticRetries)},
	{Name: "scanshare_pool_optimistic_fallbacks_total", Help: "Optimistic reads that fell back to the locked path.", Off: unsafe.Offsetof(buffer.Stats{}.OptimisticFallbacks)},
}

// writePools renders the per-pool counter and gauge families. Each family
// is declared once with every pool's (and shard's) label set under it, as
// the exposition format requires.
func writePools(w io.Writer, pools []PoolSource) {
	if len(pools) == 0 {
		return
	}
	type poolState struct {
		name        string
		policy      string
		translation string
		agg         buffer.Stats
		occ         []int
		cap         int
	}
	states := make([]poolState, 0, len(pools))
	for _, p := range pools {
		policy := p.Policy
		if policy == "" {
			policy = buffer.PolicyLRU
		}
		translation := p.Translation
		if translation == "" {
			translation = buffer.TranslationMap
		}
		st := poolState{name: poolLabel(p.Name), policy: policy, translation: translation, cap: p.Capacity}
		if p.Shards != nil {
			for _, sh := range p.Shards() {
				st.agg.Add(sh)
			}
		}
		if p.Occupancy != nil {
			st.occ = p.Occupancy()
		}
		states = append(states, st)
	}

	for i := range poolCounters {
		d := &poolCounters[i]
		declare(w, d.Name, d.Help, d.Kind.PromType())
		for j := range states {
			fmt.Fprintf(w, "%s{pool=%q} %d\n", d.Name, states[j].name, *d.At(&states[j].agg))
		}
	}

	fmt.Fprintf(w, "# HELP scanshare_pool_evictions_total Frames victimized, by the priority the page was released at.\n# TYPE scanshare_pool_evictions_total counter\n")
	for _, st := range states {
		for pr, n := range st.agg.EvictionsByPriority {
			fmt.Fprintf(w, "scanshare_pool_evictions_total{pool=%q,priority=%q} %d\n",
				st.name, buffer.Priority(pr).String(), n)
		}
	}

	fmt.Fprintf(w, "# HELP scanshare_pool_policy_info Replacement policy of each pool; the value is always 1.\n# TYPE scanshare_pool_policy_info gauge\n")
	for _, st := range states {
		fmt.Fprintf(w, "scanshare_pool_policy_info{pool=%q,policy=%q} 1\n", st.name, st.policy)
	}

	fmt.Fprintf(w, "# HELP scanshare_pool_translation_info Page translation structure of each pool; the value is always 1.\n# TYPE scanshare_pool_translation_info gauge\n")
	for _, st := range states {
		fmt.Fprintf(w, "scanshare_pool_translation_info{pool=%q,translation=%q} 1\n", st.name, st.translation)
	}

	fmt.Fprintf(w, "# HELP scanshare_pool_capacity_pages Pool frame capacity.\n# TYPE scanshare_pool_capacity_pages gauge\n")
	for _, st := range states {
		fmt.Fprintf(w, "scanshare_pool_capacity_pages{pool=%q} %d\n", st.name, st.cap)
	}

	fmt.Fprintf(w, "# HELP scanshare_pool_occupancy_pages Resident pages (valid or pending).\n# TYPE scanshare_pool_occupancy_pages gauge\n")
	for _, st := range states {
		total := 0
		for _, n := range st.occ {
			total += n
		}
		fmt.Fprintf(w, "scanshare_pool_occupancy_pages{pool=%q} %d\n", st.name, total)
	}

	fmt.Fprintf(w, "# HELP scanshare_pool_shard_occupancy_pages Resident pages per lock-striped shard.\n# TYPE scanshare_pool_shard_occupancy_pages gauge\n")
	for _, st := range states {
		for i, n := range st.occ {
			fmt.Fprintf(w, "scanshare_pool_shard_occupancy_pages{pool=%q,shard=\"%d\"} %d\n", st.name, i, n)
		}
	}
}

// declare writes the HELP and TYPE lines that open a metric family.
func declare(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// value renders one declared counter's sample value: accumulated
// nanoseconds as float seconds, everything else as an integer.
func value(k metrics.Kind, v int64) string {
	if k == metrics.KindSeconds {
		return formatFloat(time.Duration(v).Seconds())
	}
	return strconv.FormatInt(v, 10)
}

// summary renders one latency distribution as a Prometheus summary:
// pre-computed quantiles plus _sum and _count.
func summary(w io.Writer, name, help string, st metrics.HistogramStats) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
	for _, q := range []struct {
		label string
		v     time.Duration
	}{
		{"0.5", st.P50}, {"0.9", st.P90}, {"0.99", st.P99}, {"1", st.Max},
	} {
		fmt.Fprintf(w, "%s{quantile=%q} %s\n", name, q.label, formatFloat(q.v.Seconds()))
	}
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(st.Sum.Seconds()))
	fmt.Fprintf(w, "%s_count %d\n", name, st.Count)
}

// formatFloat renders a float the way Prometheus clients do: 'g' with full
// precision, so integers stay short ("0", "3") and sub-second latencies
// keep their digits.
func formatFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}
