package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Collector aggregates activity counters from many concurrently running scan
// workers. Unlike the Manager's and Pool's own statistics, which live behind
// their mutexes, the Collector is written from the hottest per-page paths of
// the realtime execution mode, so it uses plain atomics and never blocks.
// The zero value is ready to use.
type Collector struct {
	pagesRead      atomic.Int64
	hits           atomic.Int64
	optimisticHits atomic.Int64
	misses         atomic.Int64
	busyRetries    atomic.Int64

	scansStarted atomic.Int64
	scansEnded   atomic.Int64
	scansStopped atomic.Int64

	throttleEvents atomic.Int64
	throttleNanos  atomic.Int64

	prefetchEnqueued atomic.Int64
	prefetchPicked   atomic.Int64
	prefetchDropped  atomic.Int64
	prefetchFilled   atomic.Int64
	prefetchFailed   atomic.Int64

	readRetries  atomic.Int64
	readTimeouts atomic.Int64
	pagesFailed  atomic.Int64
	scanDetaches atomic.Int64
	scanRejoins  atomic.Int64

	readsCoalesced    atomic.Int64
	coalescedFailures atomic.Int64

	// Push-delivery mode: batches accepted by subscribers, reader stalls
	// on full subscriber channels, subscribers demoted to self-pulling
	// after exhausting their stall budget, and folds into a shared
	// aggregation table.
	batchesPushed    atomic.Int64
	subscriberStalls atomic.Int64
	pushDemotions    atomic.Int64
	sharedAggFolds   atomic.Int64

	// traceDropped mirrors the trace ring's cumulative dropped-event count,
	// synced by whoever owns the tracer (RunRealtime, the serve loop) so the
	// exporter and sampler can surface journal loss without holding a tracer
	// reference.
	traceDropped atomic.Int64

	// Latency distributions for the three waits a scan can experience:
	// the physical read of a missed page, an SSM-inserted throttle, and
	// the queueing delay of a prefetch request before a worker picks it up.
	pageRead      Histogram
	throttleWait  Histogram
	prefetchDelay Histogram
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

// PageHit records a buffer-pool hit for one processed page.
func (c *Collector) PageHit() {
	c.pagesRead.Add(1)
	c.hits.Add(1)
}

// OptimisticHit records a hit served by the pool's lock-free read path
// (array translation); the hit itself is still counted via PageHit.
func (c *Collector) OptimisticHit() { c.optimisticHits.Add(1) }

// PageMiss records a pool miss that the scan worker filled itself.
func (c *Collector) PageMiss() {
	c.pagesRead.Add(1)
	c.misses.Add(1)
}

// BusyRetry records one backoff on a page whose read is in flight elsewhere.
func (c *Collector) BusyRetry() { c.busyRetries.Add(1) }

// ScanStarted records a scan registering with the sharing manager.
func (c *Collector) ScanStarted() { c.scansStarted.Add(1) }

// ScanEnded records a scan deregistering; stopped marks a mid-flight
// termination rather than a completed range.
func (c *Collector) ScanEnded(stopped bool) {
	c.scansEnded.Add(1)
	if stopped {
		c.scansStopped.Add(1)
	}
}

// Throttled records one inserted wait of duration d.
func (c *Collector) Throttled(d time.Duration) {
	c.throttleEvents.Add(1)
	c.throttleNanos.Add(int64(d))
	c.throttleWait.Observe(d)
}

// PageReadTimed records the duration of one physical page read (successful
// attempts only; retries and timeouts have their own counters).
func (c *Collector) PageReadTimed(d time.Duration) { c.pageRead.Observe(d) }

// PrefetchDelayed records how long a prefetch request sat in the queue
// before a worker started on it.
func (c *Collector) PrefetchDelayed(d time.Duration) { c.prefetchDelay.Observe(d) }

// PrefetchEnqueued records an extent accepted into the prefetch queue.
func (c *Collector) PrefetchEnqueued() { c.prefetchEnqueued.Add(1) }

// PrefetchPicked records a worker dequeuing an extent to start on it; the
// enqueued-picked difference is the live queue depth.
func (c *Collector) PrefetchPicked() { c.prefetchPicked.Add(1) }

// PrefetchDropped records an extent dropped because the queue was full.
func (c *Collector) PrefetchDropped() { c.prefetchDropped.Add(1) }

// PrefetchFilled records a page a prefetch worker read into the pool.
func (c *Collector) PrefetchFilled() { c.prefetchFilled.Add(1) }

// PrefetchFailed records a page whose prefetch read failed; the pipeline
// dedups further attempts on it.
func (c *Collector) PrefetchFailed() { c.prefetchFailed.Add(1) }

// ReadRetried records a store read attempt retried after an error or timeout.
func (c *Collector) ReadRetried() { c.readRetries.Add(1) }

// ReadTimedOut records a store read that exceeded the per-read timeout.
func (c *Collector) ReadTimedOut() { c.readTimeouts.Add(1) }

// PageFailed records a page declared failed after its retries were exhausted.
func (c *Collector) PageFailed() { c.pagesFailed.Add(1) }

// ScanDetached records a scan detached from group coordination.
func (c *Collector) ScanDetached() { c.scanDetaches.Add(1) }

// ScanRejoined records a detached scan re-admitted to group coordination.
func (c *Collector) ScanRejoined() { c.scanRejoins.Add(1) }

// ReadCoalesced records a miss that joined an in-flight read issued by
// another caller instead of duplicating the physical I/O.
func (c *Collector) ReadCoalesced() { c.readsCoalesced.Add(1) }

// CoalescedFailure records a coalesced wait that ended with the leading
// read's error propagated to the waiter.
func (c *Collector) CoalescedFailure() { c.coalescedFailures.Add(1) }

// BatchPushed records one page batch accepted by a push-delivery subscriber.
func (c *Collector) BatchPushed() { c.batchesPushed.Add(1) }

// SubscriberStalled records the push reader blocking on a subscriber whose
// channel is full — push mode's flow-control analogue of a throttle event.
func (c *Collector) SubscriberStalled() { c.subscriberStalls.Add(1) }

// PushDemoted records a subscriber removed from push delivery after
// exhausting its stall budget; it finishes its footprint by pulling.
func (c *Collector) PushDemoted() { c.pushDemotions.Add(1) }

// SharedAggFolded records n tuple folds into a shared aggregation table.
func (c *Collector) SharedAggFolded(n int64) { c.sharedAggFolds.Add(n) }

// SetTraceDropped syncs the trace ring's cumulative dropped-event count.
// The ring's counter only grows, so the max keeps the collector monotonic
// even when several runs sync the same tracer concurrently.
func (c *Collector) SetTraceDropped(n int64) {
	for {
		cur := c.traceDropped.Load()
		if n <= cur || c.traceDropped.CompareAndSwap(cur, n) {
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
	for _, v := range []*atomic.Int64{
		&c.pagesRead, &c.hits, &c.optimisticHits, &c.misses, &c.busyRetries,
		&c.scansStarted, &c.scansEnded, &c.scansStopped,
		&c.throttleEvents, &c.throttleNanos,
		&c.prefetchEnqueued, &c.prefetchPicked, &c.prefetchDropped,
		&c.prefetchFilled, &c.prefetchFailed,
		&c.readRetries, &c.readTimeouts, &c.pagesFailed,
		&c.scanDetaches, &c.scanRejoins,
		&c.readsCoalesced, &c.coalescedFailures,
		&c.batchesPushed, &c.subscriberStalls, &c.pushDemotions, &c.sharedAggFolds,
		&c.traceDropped,
	} {
		v.Store(0)
	}
	c.pageRead.Reset()
	c.throttleWait.Reset()
	c.prefetchDelay.Reset()
}

// Snapshot returns the current counter values.
func (c *Collector) Snapshot() CollectorStats {
	if c == nil {
		return CollectorStats{}
	}
	return CollectorStats{
		PagesRead:          c.pagesRead.Load(),
		Hits:               c.hits.Load(),
		OptimisticHits:     c.optimisticHits.Load(),
		Misses:             c.misses.Load(),
		BusyRetries:        c.busyRetries.Load(),
		ScansStarted:       c.scansStarted.Load(),
		ScansEnded:         c.scansEnded.Load(),
		ScansStopped:       c.scansStopped.Load(),
		ThrottleEvents:     c.throttleEvents.Load(),
		ThrottleWait:       time.Duration(c.throttleNanos.Load()),
		PrefetchEnqueued:   c.prefetchEnqueued.Load(),
		PrefetchPicked:     c.prefetchPicked.Load(),
		PrefetchDropped:    c.prefetchDropped.Load(),
		PrefetchFilled:     c.prefetchFilled.Load(),
		PrefetchFailed:     c.prefetchFailed.Load(),
		ReadRetries:        c.readRetries.Load(),
		ReadTimeouts:       c.readTimeouts.Load(),
		PagesFailed:        c.pagesFailed.Load(),
		ScanDetaches:       c.scanDetaches.Load(),
		ScanRejoins:        c.scanRejoins.Load(),
		ReadsCoalesced:     c.readsCoalesced.Load(),
		CoalescedFailures:  c.coalescedFailures.Load(),
		BatchesPushed:      c.batchesPushed.Load(),
		SubscriberStalls:   c.subscriberStalls.Load(),
		PushDemotions:      c.pushDemotions.Load(),
		SharedAggFolds:     c.sharedAggFolds.Load(),
		TraceDropped:       c.traceDropped.Load(),
		PageReadLatency:    c.pageRead.Snapshot(),
		ThrottleWaitDist:   c.throttleWait.Snapshot(),
		PrefetchQueueDelay: c.prefetchDelay.Snapshot(),
	}
}
