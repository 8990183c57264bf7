// Package realtime executes scan streams as real goroutines against the
// shared buffer pool and scan sharing manager.
//
// The discrete-event kernel in internal/sim reproduces the paper's results in
// virtual time, where a single goroutine serializes every interaction with
// the Manager and the Pool. A production engine has no such serializer: many
// workers hammer one pool and one manager concurrently, throttle advice is
// honored with actual sleeps, and scans start, wrap, and die mid-flight at
// arbitrary real times. This package is that execution mode:
//
//   - Runner runs N scans as goroutines. Each scan registers with the
//     Manager, reads its pages through the Pool (filling misses from a
//     PageStore), reports progress — and what its reads cost — at
//     prefetch-extent granularity, waits out throttle advice parked on the
//     manager's wake-up with the advised wait as the deadline, releases pages at
//     the advised priority, and deregisters on completion, cancellation, or
//     a configured mid-flight stop.
//   - A bounded worker-pool prefetch pipeline reads upcoming extents into
//     the pool ahead of the scans. Requests from group members covering the
//     same pages coalesce: the queue is deduplicated per page in flight, and
//     already-resident pages are left untouched (ReleaseRetain).
//   - Every wait a worker makes goes through one Env: goroutines and pooled
//     timers in production, and in replay tests a KernelEnv, which runs the
//     same workers as sim.Kernel processes in virtual time with seeded
//     wake-up jitter, so an interleaving bug reproduces from its seed alone.
//   - A Hook observes every Manager call site, for tests and tracing.
//
// See CONCURRENCY.md at the repository root for the locking discipline and
// for how to replay a failing interleaving.
package realtime

import (
	"fmt"
	"time"

	"scanshare/internal/buffer"
	"scanshare/internal/core"
	"scanshare/internal/disk"
	"scanshare/internal/fault"
	"scanshare/internal/metrics"
	"scanshare/internal/trace"
)

// Site labels a hook point inside a scan worker. "Before" sites fire before
// the named call, "after" sites (past tense) fire once it returned.
type Site string

// Hook sites, in the order a scan visits them.
const (
	// SiteSpawn fires when the scan goroutine starts, before its start
	// delay.
	SiteSpawn Site = "spawn"
	// SiteStartScan and SiteStarted bracket Manager.StartScan.
	SiteStartScan Site = "start-scan"
	SiteStarted   Site = "started"
	// SiteBusy fires before backing off on a Busy page acquire.
	SiteBusy Site = "busy"
	// SiteRetry fires before backing off on a failed or timed-out store
	// read, one firing per retry attempt.
	SiteRetry Site = "retry"
	// SiteDetach and SiteDetached bracket Manager.DetachScan when a scan's
	// consecutive read failures cross the degradation threshold.
	SiteDetach   Site = "detach"
	SiteDetached Site = "detached"
	// SiteRejoin and SiteRejoined bracket Manager.RejoinScan when a
	// detached scan's reads recover.
	SiteRejoin   Site = "rejoin"
	SiteRejoined Site = "rejoined"
	// SiteReport and SiteReported bracket Manager.ReportProgress.
	SiteReport   Site = "report"
	SiteReported Site = "reported"
	// SiteThrottle fires before waiting out a throttle.
	SiteThrottle Site = "throttle"
	// SiteEndScan and SiteEnded bracket Manager.EndScan.
	SiteEndScan Site = "end-scan"
	SiteEnded   Site = "ended"
	// SiteExit fires exactly once when the scan goroutine finishes, after
	// any SiteEnded.
	SiteExit Site = "exit"
)

// Hook observes a scan worker at a site, from the worker's own goroutine. It
// may block to order workers (the parity test's turnstile does), except
// under a KernelEnv, which runs one worker at a time.
type Hook func(scan int, site Site)

// PageStore supplies page contents for buffer-pool misses. Implementations
// must be safe for concurrent use; the returned bytes are handed to
// Pool.Fill and must not be mutated afterwards.
type PageStore interface {
	ReadPage(pid disk.PageID) ([]byte, error)
}

// StoreFunc adapts a function to the PageStore interface.
type StoreFunc func(pid disk.PageID) ([]byte, error)

// ReadPage calls f.
func (f StoreFunc) ReadPage(pid disk.PageID) ([]byte, error) { return f(pid) }

// ContextStore is an optional PageStore extension for stores whose reads
// wait and tell retry attempts apart (fault.Store and the engine's device
// store implement it). The runner passes its context, Env, ReadTimeout and
// the attempt number, so an injected stall, a latency spike or a modelled
// transfer time waits on the runner's clock and ends at the timeout.
type ContextStore = fault.AttemptReader

// Config assembles the shared structures a Runner operates on and its
// tuning knobs. Pool, Manager, and Store are required.
type Config struct {
	Pool    *buffer.Pool
	Manager *core.Manager
	Store   PageStore

	// Env runs the workers and every wait, and its clock stamps everything
	// the runner reports. Nil selects goroutines, the wall clock and pooled
	// timers; replay tests set a KernelEnv.
	Env Env

	// Collector receives activity counters; optional. All runner and
	// prefetcher counters funnel into it.
	Collector *metrics.Collector

	// Tracer receives the runner's own observability events (currently
	// page-failure declarations); optional. Manager decision events and
	// pool evictions are journaled by attaching the same Tracer to those
	// components — the runner deliberately does not rewire structures it
	// does not own.
	Tracer *trace.Tracer

	// PrefetchWorkers sets the size of the prefetch worker pool; 0
	// disables prefetching. The request queue holds 2×workers extents;
	// when it is full, requests are dropped, not blocked on — prefetch is
	// best-effort.
	PrefetchWorkers int

	// BusyRetryDelay is the backoff before re-requesting a page whose
	// read is in flight elsewhere. Defaults to 200µs.
	BusyRetryDelay time.Duration

	// ReadTimeout bounds one page-store read attempt on Env's clock; 0
	// disables the bound. A plain PageStore's read runs in a helper worker
	// that the runner abandons at the deadline.
	ReadTimeout time.Duration

	// MaxReadRetries is how many times a failed or timed-out store read
	// is retried (with exponential backoff) before the page is declared
	// failed. 0 keeps the pre-fault behavior: the first error is final.
	MaxReadRetries int

	// RetryBackoff is the wait before the first read retry; it doubles
	// per attempt up to MaxRetryBackoff. Defaults: 200µs, capped at 10ms.
	RetryBackoff    time.Duration
	MaxRetryBackoff time.Duration

	// DetachAfterFailures is the number of consecutive failed read
	// attempts after which the scan is detached from group coordination
	// until a read succeeds again; 0 disables degradation-driven
	// detaching.
	DetachAfterFailures int

	// ContinueOnPageFailure makes a scan skip a page whose retries are
	// exhausted — recording it as degraded — instead of failing the whole
	// scan. Off by default: a permanent page failure fails the scan.
	ContinueOnPageFailure bool

	// PushDelivery switches the runner from pull to push mode: one reader
	// goroutine per scanned table drains the table's page range, pushing
	// immutable page-batch references through bounded per-subscriber
	// channels. Scans become subscribers — they attach mid-stream with a
	// catch-up cursor and complete after exactly one lap over their
	// footprint — and throttling becomes flow control: the reader blocks
	// on the slowest subscriber's full channel, bounded per subscriber by
	// the manager's fairness cap, past which the subscriber is demoted to
	// pulling its remainder itself. Prefetching is redundant in this mode
	// (the reader is the read-ahead stream) and is not started. Only the
	// goroutine environment runs it. See CONCURRENCY.md for the hub's
	// locking and promotion protocol.
	PushDelivery bool

	// PushBatchPages is the page count of one pushed batch. Defaults to
	// the manager's PrefetchExtentPages.
	PushBatchPages int

	// SubscriberQueueBatches bounds each subscriber's batch channel;
	// defaults to 4. Smaller values couple the reader more tightly to the
	// slowest subscriber; larger ones let speeds diverge further before
	// flow control engages.
	SubscriberQueueBatches int

	// PushStallBudget overrides the per-subscriber bound on reader stall
	// time before the subscriber is demoted. Zero derives the bound from
	// the manager's fairness cap (MaxThrottleFraction of the scan's
	// estimated duration), exactly as pull-mode throttling does.
	PushStallBudget time.Duration

	// Hook, when set, fires at every Site. Nil means no instrumentation.
	Hook Hook

	// OnAdvice, when set, observes every progress report's advice from
	// the worker's goroutine (after SiteReported). Used by parity tests
	// and decision tracing.
	OnAdvice func(scan int, processed int, adv core.Advice)
}

// ScanSpec describes one scan stream.
type ScanSpec struct {
	// Table and TablePages identify and size the scanned table.
	Table      core.TableID
	TablePages int
	// StartPage and EndPage bound the scan to [StartPage, EndPage);
	// EndPage == 0 means the end of the table.
	StartPage, EndPage int
	// PageID maps a table-relative page number to its device page. With
	// prefetching on, prefetch workers call it too, concurrently with the
	// scan, so it must be a pure function of pageNo.
	PageID func(pageNo int) disk.PageID
	// EstimatedDuration and Importance are passed to the Manager.
	EstimatedDuration time.Duration
	Importance        core.Importance
	// StartDelay staggers the scan's start.
	StartDelay time.Duration
	// StopAfterPages > 0 terminates the scan mid-flight after that many
	// pages, modelling a query that ends early (LIMIT, error, kill).
	StopAfterPages int
	// PageDelay, when positive, is slept after each page to model
	// per-page processing cost; it creates the speed differentials that
	// make grouping and throttling interesting.
	PageDelay time.Duration
	// OnPage, when set, observes every page the scan processes, in visit
	// order, from the scan's own goroutine: pull-mode workers call it
	// before releasing the frame, push-mode subscribers as they accept
	// pages from a batch. data is an immutable pool frame reference —
	// consumers must not mutate or grow it, but may retain it (pool page
	// content cells are never rewritten in place). Degraded pages are
	// skipped, exactly like checksumming.
	OnPage func(pageNo int, data []byte)
	// Span, when valid, is the pre-allocated identity of this scan's span
	// (trace.Child of the enclosing request, or trace.Root for a bare
	// scan). The runner opens it around the scan lifecycle and parents
	// every throttle/pool-wait/read/delivery span under it; callers that
	// pre-allocate it can parent their own spans (shared-agg folds) to the
	// scan. The zero value disables span emission for this scan — which
	// keeps replay-determinism goldens byte-stable — without touching the
	// inline wait counters in ScanResult.
	Span trace.SpanContext
}

// ScanResult reports one scan's outcome.
type ScanResult struct {
	Scan      int // index into the spec slice
	ID        core.ScanID
	Placement core.Placement

	PagesRead   int
	Hits        int64
	Misses      int64
	BusyRetries int64
	// OptimisticHits is the subset of Hits served by the pool's lock-free
	// read path (array translation only): the page was delivered without
	// pinning, so no Release follows. Always zero under map translation.
	OptimisticHits int64
	// ReadRetries counts store read attempts that were retried after an
	// error or timeout; ReadTimeouts counts the timed-out subset.
	ReadRetries  int64
	ReadTimeouts int64
	// DegradedPages counts pages skipped after exhausting read retries
	// (only with Config.ContinueOnPageFailure). Such pages appear in
	// Misses but not PagesRead.
	DegradedPages int
	// CoalescedReads counts misses resolved by joining another caller's
	// in-flight read; a successfully coalesced
	// page is then accounted as a Hit on re-acquire. CoalescedFailures
	// counts coalesced waits that ended in the leading read's error —
	// such pages appear in DegradedPages (or fail the scan) without a
	// Miss of their own, since this scan never owned a pool frame for
	// them.
	CoalescedReads, CoalescedFailures int64
	// Detaches and Rejoins count degradation transitions: how often the
	// scan was detached from group coordination and re-admitted.
	Detaches, Rejoins int
	// Checksum folds one byte of every processed page, so the race
	// detector sees workers reading shared frame bytes and tests can
	// assert all workers observed identical table contents.
	Checksum uint64

	// PushBatches counts batches this subscriber accepted from the push
	// stream; PushSelfPulled counts footprint pages it fetched itself
	// after demotion (or zero). Both are zero in pull mode.
	PushBatches    int
	PushSelfPulled int
	// PushDemoted marks a subscriber that exhausted its stall budget and
	// finished by pulling.
	PushDemoted bool

	ThrottleWait time.Duration
	// PoolWait is time blocked on buffer-pool contention: busy retries,
	// all-pinned backoff, and coalesced-flight waits. ReadWait is time in
	// physical page reads this scan led (including retry backoff); in push
	// mode it is the reader-side read time attributed to this subscriber
	// while it owned the stream's reads. DeliveryWait is push-mode time
	// blocked on the subscriber's batch channel. All three are measured
	// only on their slow paths — the pool-hit fast path records nothing —
	// and accumulate whether or not tracing is on, so the server's
	// per-tenant breakdown needs no tracer.
	PoolWait     time.Duration
	ReadWait     time.Duration
	DeliveryWait time.Duration

	Started, Done time.Duration // Config.Env times
	Stopped       bool          // terminated before covering its range
	Err           error
}

// Runner executes batches of scans against one pool/manager pair.
type Runner struct {
	cfg Config
	// ctxStore is cfg.Store's ContextStore extension, or nil; asserted
	// once so the per-page read path avoids a repeated type switch.
	ctxStore ContextStore
	// flights is the singleflight registry for physical reads, shared by
	// scan workers and prefetch workers.
	flights *flightTable
	// skipPageCount suppresses the collector's per-page hit/miss counting
	// in fetchPage. Set only on the push hub's reader-side Runner copy:
	// subscribers account the pages they are delivered, so the reader's
	// own acquires would double-count every page against pull mode.
	skipPageCount bool
}

// NewRunner validates cfg, applies defaults, and returns a Runner.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Pool == nil {
		return nil, fmt.Errorf("realtime: Config without Pool")
	}
	if cfg.Manager == nil {
		return nil, fmt.Errorf("realtime: Config without Manager")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("realtime: Config without Store")
	}
	if cfg.PrefetchWorkers < 0 {
		return nil, fmt.Errorf("realtime: negative PrefetchWorkers %d", cfg.PrefetchWorkers)
	}
	if cfg.BusyRetryDelay < 0 {
		return nil, fmt.Errorf("realtime: negative BusyRetryDelay %v", cfg.BusyRetryDelay)
	}
	if cfg.ReadTimeout < 0 || cfg.RetryBackoff < 0 || cfg.MaxRetryBackoff < 0 {
		return nil, fmt.Errorf("realtime: negative read-failure knob")
	}
	if cfg.MaxReadRetries < 0 {
		return nil, fmt.Errorf("realtime: negative MaxReadRetries %d", cfg.MaxReadRetries)
	}
	if cfg.DetachAfterFailures < 0 {
		return nil, fmt.Errorf("realtime: negative DetachAfterFailures %d", cfg.DetachAfterFailures)
	}
	if cfg.PushBatchPages < 0 || cfg.SubscriberQueueBatches < 0 || cfg.PushStallBudget < 0 {
		return nil, fmt.Errorf("realtime: negative push-delivery knob")
	}
	if cfg.Env == nil {
		cfg.Env = new(goEnv)
	} else if cfg.PushDelivery {
		return nil, fmt.Errorf("realtime: push delivery runs only in the goroutine environment")
	}
	if cfg.Collector == nil {
		cfg.Collector = new(metrics.Collector)
	}
	if cfg.BusyRetryDelay == 0 {
		cfg.BusyRetryDelay = 200 * time.Microsecond
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 200 * time.Microsecond
	}
	if cfg.MaxRetryBackoff == 0 {
		cfg.MaxRetryBackoff = 10 * time.Millisecond
	}
	if cfg.MaxRetryBackoff < cfg.RetryBackoff {
		cfg.MaxRetryBackoff = cfg.RetryBackoff
	}
	if cfg.PushBatchPages == 0 {
		cfg.PushBatchPages = cfg.Manager.Config().PrefetchExtentPages
	}
	if cfg.SubscriberQueueBatches == 0 {
		cfg.SubscriberQueueBatches = 4
	}
	r := &Runner{cfg: cfg, flights: newFlightTable()}
	r.ctxStore, _ = cfg.Store.(ContextStore)
	return r, nil
}

// Collector returns the runner's collector (the configured one, or the
// default the runner created).
func (r *Runner) Collector() *metrics.Collector { return r.cfg.Collector }

// poolPriority maps the Manager's engine-agnostic hint onto the pool's
// priority levels (same mapping as the virtual-time executor).
func poolPriority(hint core.PagePriority) buffer.Priority {
	switch hint {
	case core.PageLow:
		return buffer.PriorityLow
	case core.PageHigh:
		return buffer.PriorityHigh
	default:
		return buffer.PriorityNormal
	}
}
