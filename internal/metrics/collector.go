package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
	"unsafe"
)

// Collector aggregates activity counters from many concurrently running scan
// workers. Unlike the Manager's and Pool's own statistics, which live behind
// their mutexes, the Collector is written from the hottest per-page paths of
// the realtime execution mode, so it uses plain atomics and never blocks.
// The zero value is ready to use.
type Collector struct {
	// counters holds one atomic per Counter; CollectorCounters says which
	// CollectorStats field each one fills.
	counters [numCounters]atomic.Int64

	// Latency distributions for the three waits a scan can experience:
	// the physical read of a missed page, an SSM-inserted throttle, and
	// the queueing delay of a prefetch request before a worker picks it up.
	pageRead      Histogram
	throttleWait  Histogram
	prefetchDelay Histogram
}

// Counter names one of the Collector's counters. The constants follow the
// Prometheus exposition order.
type Counter int

const (
	PagesRead Counter = iota
	Hits
	OptimisticHits
	Misses
	BusyRetries
	ScansStarted
	ScansEnded
	ScansStopped
	ThrottleEvents
	ThrottleWait
	PrefetchEnqueued
	PrefetchPicked
	PrefetchDropped
	PrefetchFilled
	PrefetchFailed
	ReadsCoalesced
	CoalescedFailures
	ReadRetries
	ReadTimeouts
	PagesFailed
	ScanDetaches
	ScanRejoins
	BatchesPushed
	SubscriberStalls
	PushDemotions
	SharedAggFolds
	TraceDropped
	numCounters
)

// CollectorCounters declares every Collector counter, indexed by Counter:
// its Prometheus family and the CollectorStats field it fills. Adding a
// counter takes a constant, a row here, a CollectorStats field and the
// increment site. Read-only.
var CollectorCounters = [numCounters]Desc[CollectorStats]{
	PagesRead:         {"scanshare_pages_read_total", "Pages fetched and processed by scan workers.", KindCount, unsafe.Offsetof(CollectorStats{}.PagesRead)},
	Hits:              {"scanshare_page_hits_total", "Buffer pool hits observed by scan workers.", KindCount, unsafe.Offsetof(CollectorStats{}.Hits)},
	OptimisticHits:    {"scanshare_optimistic_hits_total", "Hits scan workers took over the pool's lock-free read path.", KindCount, unsafe.Offsetof(CollectorStats{}.OptimisticHits)},
	Misses:            {"scanshare_page_misses_total", "Buffer pool misses filled by scan workers.", KindCount, unsafe.Offsetof(CollectorStats{}.Misses)},
	BusyRetries:       {"scanshare_busy_retries_total", "Acquire backoffs on in-flight reads or full shards.", KindCount, unsafe.Offsetof(CollectorStats{}.BusyRetries)},
	ScansStarted:      {"scanshare_scans_started_total", "Scans registered with the sharing manager.", KindCount, unsafe.Offsetof(CollectorStats{}.ScansStarted)},
	ScansEnded:        {"scanshare_scans_ended_total", "Scans deregistered.", KindCount, unsafe.Offsetof(CollectorStats{}.ScansEnded)},
	ScansStopped:      {"scanshare_scans_stopped_total", "Scans terminated mid-flight.", KindCount, unsafe.Offsetof(CollectorStats{}.ScansStopped)},
	ThrottleEvents:    {"scanshare_throttle_events_total", "SSM-inserted leader waits.", KindCount, unsafe.Offsetof(CollectorStats{}.ThrottleEvents)},
	ThrottleWait:      {"scanshare_throttle_wait_seconds_total", "Total SSM-inserted wait time.", KindSeconds, unsafe.Offsetof(CollectorStats{}.ThrottleWait)},
	PrefetchEnqueued:  {"scanshare_prefetch_enqueued_total", "Extents accepted into the prefetch queue.", KindCount, unsafe.Offsetof(CollectorStats{}.PrefetchEnqueued)},
	PrefetchPicked:    {"scanshare_prefetch_picked_total", "Extents a prefetch worker started on.", KindCount, unsafe.Offsetof(CollectorStats{}.PrefetchPicked)},
	PrefetchDropped:   {"scanshare_prefetch_dropped_total", "Extents dropped because the prefetch queue was full.", KindCount, unsafe.Offsetof(CollectorStats{}.PrefetchDropped)},
	PrefetchFilled:    {"scanshare_prefetch_filled_total", "Pages prefetch workers brought into the pool.", KindCount, unsafe.Offsetof(CollectorStats{}.PrefetchFilled)},
	PrefetchFailed:    {"scanshare_prefetch_failed_total", "Pages whose prefetch read failed.", KindCount, unsafe.Offsetof(CollectorStats{}.PrefetchFailed)},
	ReadsCoalesced:    {"scanshare_reads_coalesced_total", "Misses that joined another caller's in-flight read.", KindCount, unsafe.Offsetof(CollectorStats{}.ReadsCoalesced)},
	CoalescedFailures: {"scanshare_coalesced_failures_total", "Coalesced waits that inherited the leader's read error.", KindCount, unsafe.Offsetof(CollectorStats{}.CoalescedFailures)},
	ReadRetries:       {"scanshare_read_retries_total", "Store read attempts retried after an error or timeout.", KindCount, unsafe.Offsetof(CollectorStats{}.ReadRetries)},
	ReadTimeouts:      {"scanshare_read_timeouts_total", "Store reads that exceeded the per-read timeout.", KindCount, unsafe.Offsetof(CollectorStats{}.ReadTimeouts)},
	PagesFailed:       {"scanshare_pages_failed_total", "Pages declared failed after exhausting retries.", KindCount, unsafe.Offsetof(CollectorStats{}.PagesFailed)},
	ScanDetaches:      {"scanshare_scan_detaches_total", "Scans detached from group coordination.", KindCount, unsafe.Offsetof(CollectorStats{}.ScanDetaches)},
	ScanRejoins:       {"scanshare_scan_rejoins_total", "Detached scans re-admitted.", KindCount, unsafe.Offsetof(CollectorStats{}.ScanRejoins)},
	BatchesPushed:     {"scanshare_batches_pushed_total", "Page batches accepted by push-delivery subscribers.", KindCount, unsafe.Offsetof(CollectorStats{}.BatchesPushed)},
	SubscriberStalls:  {"scanshare_subscriber_stalls_total", "Push reader blocks on a full subscriber channel.", KindCount, unsafe.Offsetof(CollectorStats{}.SubscriberStalls)},
	PushDemotions:     {"scanshare_push_demotions_total", "Subscribers demoted to self-pulling after exhausting the stall budget.", KindCount, unsafe.Offsetof(CollectorStats{}.PushDemotions)},
	SharedAggFolds:    {"scanshare_shared_agg_folds_total", "Tuple folds into a shared (cross-consumer) aggregation table.", KindCount, unsafe.Offsetof(CollectorStats{}.SharedAggFolds)},
	TraceDropped:      {"scanshare_trace_dropped_total", "Events the trace ring discarded because it was full.", KindMax, unsafe.Offsetof(CollectorStats{}.TraceDropped)},
}

// CollectorStats is a consistent-enough snapshot of the counters: each field
// is read atomically, but the set is not sampled at one instant. Counters
// only grow, so sums and ratios derived from a snapshot are conservative.
type CollectorStats struct {
	PagesRead      int64 // pages fetched and processed by scan workers
	Hits           int64
	OptimisticHits int64 // subset of Hits served by the pool's lock-free read path
	Misses         int64
	BusyRetries    int64

	ScansStarted int64
	ScansEnded   int64
	ScansStopped int64 // scans terminated mid-flight (cancel or stop limit)

	ThrottleEvents int64
	ThrottleWait   time.Duration

	PrefetchEnqueued int64 // extents accepted into the prefetch queue
	PrefetchPicked   int64 // extents a worker has started on (dequeued)
	PrefetchDropped  int64 // extents dropped because the queue was full
	PrefetchFilled   int64 // pages a prefetch worker brought into the pool
	PrefetchFailed   int64 // pages whose prefetch read failed (deduplicated thereafter)

	ReadRetries  int64 // store read attempts retried after an error or timeout
	ReadTimeouts int64 // store reads that exceeded the per-read timeout
	PagesFailed  int64 // pages declared failed after exhausting retries (degraded)
	ScanDetaches int64 // scans detached from group coordination after persistent failures
	ScanRejoins  int64 // detached scans re-admitted after a successful read

	ReadsCoalesced    int64 // misses that joined another caller's in-flight read instead of duplicating the I/O
	CoalescedFailures int64 // coalesced waits that ended in the leader's read error

	BatchesPushed    int64 // page batches accepted by push-delivery subscribers
	SubscriberStalls int64 // push reader blocks on a full subscriber channel
	PushDemotions    int64 // subscribers demoted to self-pulling after exhausting the stall budget
	SharedAggFolds   int64 // tuple folds into a shared (cross-consumer) aggregation table

	TraceDropped int64 // events the trace ring discarded because it was full

	PageReadLatency    HistogramStats // physical read time of missed pages
	ThrottleWaitDist   HistogramStats // SSM-inserted leader waits
	PrefetchQueueDelay HistogramStats // enqueue-to-pickup delay of prefetch extents
}

// Histograms renders the three latency distributions as a multi-line block,
// omitting empty ones; it returns "" when nothing was observed.
func (s CollectorStats) Histograms() string {
	out := ""
	for _, h := range []struct {
		name string
		st   HistogramStats
	}{
		{"page-read", s.PageReadLatency},
		{"throttle-wait", s.ThrottleWaitDist},
		{"prefetch-queue", s.PrefetchQueueDelay},
	} {
		if h.st.Count == 0 {
			continue
		}
		out += fmt.Sprintf("%-15s %s\n", h.name, h.st)
	}
	return out
}

// PrefetchQueueDepth derives the number of extents sitting in the prefetch
// queue right now: accepted minus picked up. The two counters are read at
// slightly different instants, so a concurrent pickup can make the naive
// difference negative; it is clamped at zero.
func (s CollectorStats) PrefetchQueueDepth() int64 {
	d := s.PrefetchEnqueued - s.PrefetchPicked
	if d < 0 {
		d = 0
	}
	return d
}

// HitRatio returns Hits / PagesRead, or 0 when nothing was read.
func (s CollectorStats) HitRatio() float64 {
	if s.PagesRead == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.PagesRead)
}

// String renders the snapshot as one compact log line. Failure counters are
// appended only when any failure occurred, so healthy runs read as before.
func (s CollectorStats) String() string {
	out := fmt.Sprintf(
		"scans %d/%d done (%d stopped), pages %d (%.1f%% hit, %d busy), throttles %d (%v), prefetch %d queued/%d filled/%d dropped",
		s.ScansEnded, s.ScansStarted, s.ScansStopped,
		s.PagesRead, s.HitRatio()*100, s.BusyRetries,
		s.ThrottleEvents, s.ThrottleWait,
		s.PrefetchEnqueued, s.PrefetchFilled, s.PrefetchDropped)
	if s.ReadsCoalesced != 0 {
		out += fmt.Sprintf(", %d reads coalesced", s.ReadsCoalesced)
	}
	if s.OptimisticHits != 0 {
		out += fmt.Sprintf(", %d optimistic hits", s.OptimisticHits)
	}
	if s.BatchesPushed != 0 {
		out += fmt.Sprintf(", %d batches pushed (%d stalls, %d demotions)",
			s.BatchesPushed, s.SubscriberStalls, s.PushDemotions)
	}
	if s.SharedAggFolds != 0 {
		out += fmt.Sprintf(", %d shared-agg folds", s.SharedAggFolds)
	}
	if s.ReadRetries != 0 || s.ReadTimeouts != 0 || s.PagesFailed != 0 ||
		s.ScanDetaches != 0 || s.ScanRejoins != 0 || s.PrefetchFailed != 0 {
		out += fmt.Sprintf(", failures: %d retries (%d timeouts), %d degraded pages, %d detaches/%d rejoins, %d prefetch fails",
			s.ReadRetries, s.ReadTimeouts, s.PagesFailed, s.ScanDetaches, s.ScanRejoins, s.PrefetchFailed)
	}
	return out
}

// Add adds n to counter k. Counters with a compound meaning have their own
// methods: PageHit, PageMiss, ScanEnded, Throttled and SetTraceDropped.
func (c *Collector) Add(k Counter, n int64) { c.counters[k].Add(n) }

// PageHit records a buffer-pool hit for one processed page.
func (c *Collector) PageHit() {
	c.counters[PagesRead].Add(1)
	c.counters[Hits].Add(1)
}

// PageMiss records a pool miss that the scan worker filled itself.
func (c *Collector) PageMiss() {
	c.counters[PagesRead].Add(1)
	c.counters[Misses].Add(1)
}

// ScanEnded records a scan deregistering; stopped marks a mid-flight
// termination rather than a completed range.
func (c *Collector) ScanEnded(stopped bool) {
	c.counters[ScansEnded].Add(1)
	if stopped {
		c.counters[ScansStopped].Add(1)
	}
}

// Throttled records one inserted wait of duration d.
func (c *Collector) Throttled(d time.Duration) {
	c.counters[ThrottleEvents].Add(1)
	c.counters[ThrottleWait].Add(int64(d))
	c.throttleWait.Observe(d)
}

// PageReadTimed records the duration of one physical page read (successful
// attempts only; retries and timeouts have their own counters).
func (c *Collector) PageReadTimed(d time.Duration) { c.pageRead.Observe(d) }

// PrefetchDelayed records how long a prefetch request sat in the queue
// before a worker started on it.
func (c *Collector) PrefetchDelayed(d time.Duration) { c.prefetchDelay.Observe(d) }

// SetTraceDropped syncs the trace ring's cumulative dropped-event count.
// The ring's counter only grows, so the max keeps the collector monotonic
// even when several runs sync the same tracer concurrently.
func (c *Collector) SetTraceDropped(n int64) {
	v := &c.counters[TraceDropped]
	for {
		cur := v.Load()
		if n <= cur || v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Reset zeroes every counter and histogram, so back-to-back runs in one
// process report from a clean slate. Like Histogram.Reset it clears field
// by field: call it between runs, not while scan workers are writing.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	for i := range c.counters {
		c.counters[i].Store(0)
	}
	c.pageRead.Reset()
	c.throttleWait.Reset()
	c.prefetchDelay.Reset()
}

// Snapshot returns the current counter values.
func (c *Collector) Snapshot() CollectorStats {
	var s CollectorStats
	if c == nil {
		return s
	}
	for i := range CollectorCounters {
		*CollectorCounters[i].At(&s) = c.counters[i].Load()
	}
	s.PageReadLatency = c.pageRead.Snapshot()
	s.ThrottleWaitDist = c.throttleWait.Snapshot()
	s.PrefetchQueueDelay = c.prefetchDelay.Snapshot()
	return s
}
