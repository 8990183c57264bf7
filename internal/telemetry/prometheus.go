package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

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

	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	// Scan worker activity (the realtime collector).
	counter("scanshare_pages_read_total", "Pages fetched and processed by scan workers.", cs.PagesRead)
	counter("scanshare_page_hits_total", "Buffer pool hits observed by scan workers.", cs.Hits)
	counter("scanshare_optimistic_hits_total", "Hits scan workers took over the pool's lock-free read path.", cs.OptimisticHits)
	counter("scanshare_page_misses_total", "Buffer pool misses filled by scan workers.", cs.Misses)
	counter("scanshare_busy_retries_total", "Acquire backoffs on in-flight reads or full shards.", cs.BusyRetries)
	counter("scanshare_scans_started_total", "Scans registered with the sharing manager.", cs.ScansStarted)
	counter("scanshare_scans_ended_total", "Scans deregistered.", cs.ScansEnded)
	counter("scanshare_scans_stopped_total", "Scans terminated mid-flight.", cs.ScansStopped)
	counter("scanshare_throttle_events_total", "SSM-inserted leader waits.", cs.ThrottleEvents)
	seconds("scanshare_throttle_wait_seconds_total", "Total SSM-inserted wait time.", w, cs.ThrottleWait)
	counter("scanshare_prefetch_enqueued_total", "Extents accepted into the prefetch queue.", cs.PrefetchEnqueued)
	counter("scanshare_prefetch_picked_total", "Extents a prefetch worker started on.", cs.PrefetchPicked)
	counter("scanshare_prefetch_dropped_total", "Extents dropped because the prefetch queue was full.", cs.PrefetchDropped)
	counter("scanshare_prefetch_filled_total", "Pages prefetch workers brought into the pool.", cs.PrefetchFilled)
	counter("scanshare_prefetch_failed_total", "Pages whose prefetch read failed.", cs.PrefetchFailed)
	counter("scanshare_reads_coalesced_total", "Misses that joined another caller's in-flight read.", cs.ReadsCoalesced)
	counter("scanshare_coalesced_failures_total", "Coalesced waits that inherited the leader's read error.", cs.CoalescedFailures)
	counter("scanshare_read_retries_total", "Store read attempts retried after an error or timeout.", cs.ReadRetries)
	counter("scanshare_read_timeouts_total", "Store reads that exceeded the per-read timeout.", cs.ReadTimeouts)
	counter("scanshare_pages_failed_total", "Pages declared failed after exhausting retries.", cs.PagesFailed)
	counter("scanshare_scan_detaches_total", "Scans detached from group coordination.", cs.ScanDetaches)
	counter("scanshare_scan_rejoins_total", "Detached scans re-admitted.", cs.ScanRejoins)
	counter("scanshare_batches_pushed_total", "Page batches accepted by push-delivery subscribers.", cs.BatchesPushed)
	counter("scanshare_subscriber_stalls_total", "Push reader blocks on a full subscriber channel.", cs.SubscriberStalls)
	counter("scanshare_push_demotions_total", "Subscribers demoted to self-pulling after exhausting the stall budget.", cs.PushDemotions)
	counter("scanshare_shared_agg_folds_total", "Tuple folds into a shared (cross-consumer) aggregation table.", cs.SharedAggFolds)
	counter("scanshare_trace_dropped_total", "Events the trace ring discarded because it was full.", cs.TraceDropped)
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
	tenantCounter := func(name, help string, field func(metrics.TenantStats) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, t := range tenants {
			fmt.Fprintf(w, "%s{tenant=%q} %d\n", name, t.Name, field(t))
		}
	}
	tenantCounter("scanshare_tenant_admitted_total", "Requests granted an execution slot.", func(t metrics.TenantStats) int64 { return t.Admitted })
	tenantCounter("scanshare_tenant_queued_total", "Requests that waited in the admission FIFO before a slot freed.", func(t metrics.TenantStats) int64 { return t.Queued })
	tenantCounter("scanshare_tenant_shed_total", "Requests rejected because the admission queue was at its depth limit.", func(t metrics.TenantStats) int64 { return t.Shed })

	fmt.Fprintf(w, "# HELP scanshare_tenant_running Requests currently holding an execution slot.\n# TYPE scanshare_tenant_running gauge\n")
	for _, t := range tenants {
		fmt.Fprintf(w, "scanshare_tenant_running{tenant=%q} %d\n", t.Name, t.Running)
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

	// Per-tenant latency breakdown: cumulative seconds per component, the
	// live counterpart of the span assembler's per-query attribution.
	tenantSeconds := func(name, help string, field func(metrics.TenantStats) time.Duration) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, t := range tenants {
			fmt.Fprintf(w, "%s{tenant=%q} %s\n", name, t.Name, formatFloat(field(t).Seconds()))
		}
	}
	tenantSeconds("scanshare_tenant_compile_seconds_total", "SQL parse and plan time of the tenant's requests.", func(t metrics.TenantStats) time.Duration { return t.CompileWait })
	tenantSeconds("scanshare_tenant_throttle_wait_seconds_total", "SSM-inserted sleeps inside the tenant's scans.", func(t metrics.TenantStats) time.Duration { return t.ThrottleWait })
	tenantSeconds("scanshare_tenant_pool_wait_seconds_total", "Buffer-pool contention waits inside the tenant's scans.", func(t metrics.TenantStats) time.Duration { return t.PoolWait })
	tenantSeconds("scanshare_tenant_read_wait_seconds_total", "Physical page-read time inside the tenant's scans.", func(t metrics.TenantStats) time.Duration { return t.ReadWait })
	tenantSeconds("scanshare_tenant_delivery_wait_seconds_total", "Push-delivery batch-channel waits inside the tenant's scans.", func(t metrics.TenantStats) time.Duration { return t.DeliveryWait })
}

// poolLabel renders the pool-name label value; the default pool's empty
// name becomes "default" so the label is never empty.
func poolLabel(name string) string {
	if name == "" {
		return "default"
	}
	return name
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

	poolCounter := func(name, help string, field func(buffer.Stats) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, st := range states {
			fmt.Fprintf(w, "%s{pool=%q} %d\n", name, st.name, field(st.agg))
		}
	}
	poolCounter("scanshare_pool_logical_reads_total", "Pool acquires that returned hit or miss.", func(s buffer.Stats) int64 { return s.LogicalReads })
	poolCounter("scanshare_pool_hits_total", "Pool acquires served from a resident frame.", func(s buffer.Stats) int64 { return s.Hits })
	poolCounter("scanshare_pool_misses_total", "Pool acquires that reserved a frame for a physical read.", func(s buffer.Stats) int64 { return s.Misses })
	poolCounter("scanshare_pool_aborts_total", "Misses whose physical read failed.", func(s buffer.Stats) int64 { return s.Aborts })
	poolCounter("scanshare_pool_busy_retries_total", "Pool acquires that returned busy.", func(s buffer.Stats) int64 { return s.BusyRetries })
	poolCounter("scanshare_pool_all_pinned_total", "Pool acquires that found every frame pinned.", func(s buffer.Stats) int64 { return s.AllPinned })
	poolCounter("scanshare_pool_optimistic_hits_total", "Hits served by the lock-free optimistic read path (array translation).", func(s buffer.Stats) int64 { return s.OptHits })
	poolCounter("scanshare_pool_optimistic_retries_total", "Optimistic read validations that failed and retried.", func(s buffer.Stats) int64 { return s.OptRetries })
	poolCounter("scanshare_pool_optimistic_fallbacks_total", "Optimistic reads that fell back to the locked path.", func(s buffer.Stats) int64 { return s.OptFallbacks })

	fmt.Fprintf(w, "# HELP scanshare_pool_evictions_total Frames victimized, by the priority the page was released at.\n# TYPE scanshare_pool_evictions_total counter\n")
	for _, st := range states {
		for pr, n := range st.agg.EvictionsByPr {
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

// seconds renders one float counter of accumulated seconds.
func seconds(name, help string, w io.Writer, d time.Duration) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %s\n", name, help, name, name, formatFloat(d.Seconds()))
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
