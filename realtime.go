package scanshare

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"scanshare/internal/disk"
	"scanshare/internal/fault"
	"scanshare/internal/metrics"
	"scanshare/internal/realtime"
	"scanshare/internal/trace"
)

// RealtimeScan describes one scan stream for RunRealtime: a sequential read
// of a table range executed by a real goroutine in wall-clock time.
type RealtimeScan struct {
	// Table to scan. Required.
	Table *Table
	// StartPage and EndPage bound the scan to [StartPage, EndPage) in
	// table-relative pages; EndPage == 0 means "to the end of the table".
	StartPage, EndPage int
	// EstimatedDuration seeds the SSM's speed estimate and bounds the
	// throttling fairness cap. Zero means unknown.
	EstimatedDuration time.Duration
	// Importance scales the scan's throttling allowance.
	Importance Importance
	// StartDelay staggers the scan's start.
	StartDelay time.Duration
	// StopAfterPages, when positive, terminates the scan early after that
	// many pages — a query abandoned mid-flight.
	StopAfterPages int
	// PageDelay models per-page processing cost as a wall-clock sleep.
	PageDelay time.Duration
	// OnPage, when set, receives every page the scan processes — in
	// footprint order, from the scan's own goroutine (pull mode) or as
	// pushed batches arrive (RealtimeOptions.PushDelivery). data is an
	// immutable buffer frame reference: consumers must not mutate it but
	// may retain it. Degraded pages are skipped.
	OnPage func(pageNo int, data []byte)
	// Span, when valid, parents the scan's span tree under an existing
	// trace — the server sets it to attribute a scan to its request. When
	// zero and a tracer is active, RunRealtime allocates a fresh root so
	// every traced scan still produces a complete tree.
	Span trace.SpanContext
}

// FaultKind classifies an injected read failure. The kinds mirror
// internal/fault: an outright error, a latency spike, an indefinite stall
// (unstuck only by ReadTimeout or cancellation), and a torn (short) read.
type FaultKind int

const (
	FaultError FaultKind = iota
	FaultLatency
	FaultStall
	FaultTorn
)

// FaultRule describes one class of injected read fault. Whether a given read
// attempt misbehaves is a pure function of (plan seed, rule index, page,
// attempt), so the same plan replays the same failure schedule on every run.
type FaultRule struct {
	// Kind selects the failure mode.
	Kind FaultKind
	// Table, when set, scopes the rule to that table and makes FirstPage
	// and LastPage table-relative. When nil the bounds are device-absolute
	// page IDs.
	Table *Table
	// FirstPage and LastPage bound the rule, inclusive. LastPage == 0
	// means "to the end of the table" (with Table set) or "no upper bound".
	FirstPage, LastPage int
	// Prob is the per-(page, attempt) probability in (0, 1] that the rule
	// fires.
	Prob float64
	// UntilAttempt, when positive, restricts the rule to read attempts
	// < UntilAttempt, so retries past it succeed ("fail then recover").
	UntilAttempt int
	// Latency is the injected delay for FaultLatency rules.
	Latency time.Duration
}

// FaultPlan is a declarative, seeded fault schedule for RunRealtime. Rules
// are checked in order; the first matching rule that clears its probability
// roll fires.
type FaultPlan struct {
	Seed  int64
	Rules []FaultRule
}

// FaultStats summarizes the faults a plan actually injected during one run:
// read attempts that reached the fault layer, served faults by kind, and
// the total delay latency faults added.
type FaultStats = fault.Counters

// RealtimeOptions tunes RunRealtime.
type RealtimeOptions struct {
	// PrefetchWorkers sets the read-ahead worker pool size; 0 disables
	// prefetching.
	PrefetchWorkers int
	// PageReadDelay is a wall-clock wait charged per physical page read,
	// standing in for device transfer time (the virtual-time disk cost
	// model does not apply in this mode). Cancelling ctx and ReadTimeout
	// both cut it.
	PageReadDelay time.Duration

	// PushDelivery switches scan execution from pull to push: one reader
	// goroutine per scanned table drains the page range once per demand
	// lap and fans immutable page-batch references out to the scans, which
	// become subscribers (group membership by subscription, throttling by
	// flow control). Results are observationally identical to pull mode;
	// PrefetchWorkers is ignored since the reader is the read-ahead. A
	// batch is the sharing config's prefetch extent, and a subscriber that
	// holds the reader up for longer than its share of the fairness
	// throttle fraction pulls its remainder itself.
	PushDelivery bool

	// Faults, when non-nil, injects the plan's deterministic read failures
	// underneath the page store.
	Faults *FaultPlan
	// ReadTimeout bounds each page-read attempt; 0 means no bound. A
	// timeout is required to survive FaultStall rules.
	ReadTimeout time.Duration
	// MaxReadRetries is how many times a failed page read is retried with
	// exponential backoff before the failure is surfaced; 0 disables
	// retries.
	MaxReadRetries int
	// RetryBackoff and MaxRetryBackoff shape the exponential backoff
	// between retries; zero values pick defaults.
	RetryBackoff    time.Duration
	MaxRetryBackoff time.Duration
	// DetachAfterFailures detaches a scan from its group's coordination
	// after that many consecutive failed read attempts; it rejoins on the
	// first successful read. 0 disables detaching.
	DetachAfterFailures int
	// ContinueOnPageFailure makes scans skip pages whose reads keep
	// failing after all retries (counting them as DegradedPages) instead
	// of aborting the scan.
	ContinueOnPageFailure bool

	// Collector, when non-nil, receives the run's activity counters
	// instead of an internal throwaway one, so live observers — the
	// telemetry sampler, the Prometheus exporter, expvar — can watch the
	// run as it happens and a caller can Reset and reuse one collector
	// across runs. The report's Counters snapshot is taken from it at the
	// end of the run either way.
	Collector *metrics.Collector

	// Tracer, when non-nil, journals the run's structured events — scan
	// lifecycle, group merges and splits, leader/trailer handoffs,
	// throttle waits, detach/rejoin, evictions with priority, and page
	// failures — into its event ring. The tracer is attached to every
	// pool and sharing manager for the duration of the call and detached
	// afterwards (an Engine.AttachTracer registration, if any, is
	// restored).
	Tracer *trace.Tracer
}

// RealtimeScanResult is the per-scan outcome of a RunRealtime call.
type RealtimeScanResult = realtime.ScanResult

// RealtimeReport is the outcome of one RunRealtime call.
type RealtimeReport struct {
	// Results holds one entry per input scan, index-aligned.
	Results []RealtimeScanResult
	// Wall is the wall-clock duration of the whole run.
	Wall time.Duration
	// Counters aggregates the run's page and scan activity across pools.
	Counters metrics.CollectorStats
	// Pools breaks buffer activity down per pool for this run.
	Pools map[string]PoolStats
	// Sharing summarizes SSM activity (cumulative over the engine's
	// lifetime, like Report.Sharing).
	Sharing SharingStats
	// Faults reports what the fault plan injected; zero when no plan was
	// set.
	Faults FaultStats
}

// compilePlan translates the public fault plan into the internal one,
// resolving table-relative page bounds to device pages.
func (e *Engine) compilePlan(p *FaultPlan) (fault.Plan, error) {
	out := fault.Plan{Seed: p.Seed}
	for i, r := range p.Rules {
		ir := fault.Rule{
			Kind:         fault.Kind(r.Kind),
			FirstPage:    disk.PageID(r.FirstPage),
			LastPage:     disk.PageID(r.LastPage),
			Prob:         r.Prob,
			UntilAttempt: r.UntilAttempt,
			Latency:      r.Latency,
		}
		if t := r.Table; t != nil {
			if t.eng != e {
				return fault.Plan{}, fmt.Errorf("scanshare: fault rule %d targets a table of another engine", i)
			}
			if r.FirstPage < 0 || r.FirstPage >= t.NumPages() ||
				(r.LastPage != 0 && (r.LastPage < r.FirstPage || r.LastPage >= t.NumPages())) {
				return fault.Plan{}, fmt.Errorf("scanshare: fault rule %d page range [%d,%d] outside table %q (%d pages)",
					i, r.FirstPage, r.LastPage, t.Name(), t.NumPages())
			}
			first := t.tbl.FirstPage()
			ir.FirstPage = first + disk.PageID(r.FirstPage)
			last := r.LastPage
			if last == 0 {
				last = t.NumPages() - 1
			}
			ir.LastPage = first + disk.PageID(last)
		}
		out.Rules = append(out.Rules, ir)
	}
	if err := out.Validate(); err != nil {
		return fault.Plan{}, fmt.Errorf("scanshare: %w", err)
	}
	return out, nil
}

// rtStore adapts the simulated device to the realtime page-store interface:
// contents come from the same backing pages the virtual-time mode reads, but
// through ReadRaw, so wall-clock reads never disturb the device's
// virtual-time head position or busy window. The modelled transfer time,
// delay, is waited on the runner's Env, so cancellation and the read
// timeout cut it like any other wait.
type rtStore struct {
	dev   *disk.Device
	delay time.Duration
}

// ReadPage reads pid on the wall clock with no bound; the runner calls
// ReadPageAt.
func (s rtStore) ReadPage(pid disk.PageID) ([]byte, error) {
	return s.ReadPageAt(context.Background(), fault.WallEnv{}, 0, pid, 0)
}

// ReadPageAt waits out the transfer time on env, for at most timeout and
// until ctx ends, then reads pid.
func (s rtStore) ReadPageAt(ctx context.Context, env fault.Env, timeout time.Duration, pid disk.PageID, _ int) ([]byte, error) {
	if s.delay > 0 {
		if err := fault.Wait(ctx, env, s.delay, timeout); err != nil {
			return nil, fmt.Errorf("scanshare: read of page %d: %w", pid, err)
		}
	}
	return s.dev.ReadRaw(pid)
}

// RunRealtime executes the scans as concurrent goroutines in wall-clock
// time — the realtime counterpart of the virtual-time Run. Scans go through
// the same buffer pools and scan sharing managers as Shared-mode queries:
// placements, grouping, priority hints, and throttling all apply, with
// throttle advice honored as real context-aware sleeps. Scans that miss on a
// page another scan is already reading wait for that read instead of issuing
// their own (singleflight coalescing). Cancelling ctx stops every scan at its
// next page boundary; cancelled scans are reported Stopped, not failed.
//
// Scans only coordinate within their table's buffer pool, as in Run; scans
// of tables in different pools proceed independently and concurrently.
//
// The engine's virtual clock does not advance: a virtual-time Run may follow
// a realtime one on the same engine (the pools keep their contents, which is
// the warm-database behavior Run documents).
func (e *Engine) RunRealtime(ctx context.Context, opts RealtimeOptions, scans []RealtimeScan) (*RealtimeReport, error) {
	if len(scans) == 0 {
		return nil, errors.New("scanshare: RunRealtime with no scans")
	}
	for i, sc := range scans {
		if sc.Table == nil {
			return nil, fmt.Errorf("scanshare: realtime scan %d has no table", i)
		}
		if sc.Table.eng != e {
			return nil, fmt.Errorf("scanshare: realtime scan %d targets a table of another engine", i)
		}
	}

	col := opts.Collector
	if col == nil {
		col = new(metrics.Collector)
	}
	var store realtime.PageStore = rtStore{dev: e.dev, delay: opts.PageReadDelay}
	var faultStore *fault.Store
	if opts.Faults != nil {
		plan, err := e.compilePlan(opts.Faults)
		if err != nil {
			return nil, err
		}
		faultStore, err = fault.NewStore(store, plan)
		if err != nil {
			return nil, fmt.Errorf("scanshare: %w", err)
		}
		store = faultStore
	}
	poolsBefore := e.poolStatsSnapshot()

	// Resolve the run's tracer: an explicit opts.Tracer is attached for the
	// duration of the call; otherwise a tracer already attached to the
	// engine (the serve path) is used as-is. tr may be nil — every span
	// method is nil-safe.
	tr := opts.Tracer
	if tr != nil {
		prev := e.tracer
		e.AttachTracer(tr)
		defer e.AttachTracer(prev)
	} else {
		tr = e.tracer
	}

	// Group the scans by buffer pool; each pool gets its own runner, all
	// runners execute concurrently.
	type poolBatch struct {
		rt      *poolRT
		specs   []realtime.ScanSpec
		indices []int // spec j came from scans[indices[j]]
	}
	batches := make(map[string]*poolBatch)
	for i, sc := range scans {
		rt := sc.Table.rt
		b := batches[rt.name]
		if b == nil {
			b = &poolBatch{rt: rt}
			batches[rt.name] = b
		}
		span := sc.Span
		if !span.Valid() {
			// Root allocation is a no-op (zero context) when no tracer is
			// active, so untraced runs stay span-free.
			span = tr.Root()
		}
		first := sc.Table.tbl.FirstPage()
		b.specs = append(b.specs, realtime.ScanSpec{
			Table:             sc.Table.coreTableID(),
			TablePages:        sc.Table.NumPages(),
			StartPage:         sc.StartPage,
			EndPage:           sc.EndPage,
			PageID:            func(pageNo int) disk.PageID { return first + disk.PageID(pageNo) },
			EstimatedDuration: sc.EstimatedDuration,
			Importance:        sc.Importance,
			StartDelay:        sc.StartDelay,
			StopAfterPages:    sc.StopAfterPages,
			PageDelay:         sc.PageDelay,
			OnPage:            sc.OnPage,
			Span:              span,
		})
		b.indices = append(b.indices, i)
	}

	report := &RealtimeReport{
		Results: make([]RealtimeScanResult, len(scans)),
		Pools:   make(map[string]PoolStats, len(batches)),
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(batches))
	bi := 0
	for _, b := range batches {
		errp := &errs[bi]
		bi++
		runner, err := realtime.NewRunner(realtime.Config{
			Pool:                  b.rt.pool,
			Manager:               b.rt.ssm,
			Store:                 store,
			Collector:             col,
			PrefetchWorkers:       opts.PrefetchWorkers,
			ReadTimeout:           opts.ReadTimeout,
			MaxReadRetries:        opts.MaxReadRetries,
			RetryBackoff:          opts.RetryBackoff,
			MaxRetryBackoff:       opts.MaxRetryBackoff,
			DetachAfterFailures:   opts.DetachAfterFailures,
			ContinueOnPageFailure: opts.ContinueOnPageFailure,
			Tracer:                tr,
			PushDelivery:          opts.PushDelivery,
		})
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results, err := runner.Run(ctx, b.specs)
			if err != nil {
				*errp = fmt.Errorf("pool %q: %w", b.rt.name, err)
			}
			for j, res := range results {
				res.Scan = b.indices[j]
				report.Results[b.indices[j]] = res
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	report.Wall = time.Since(start)
	if tr != nil {
		col.SetTraceDropped(int64(tr.Dropped()))
	}
	report.Counters = col.Snapshot()
	if faultStore != nil {
		report.Faults = faultStore.Counters()
	}
	for name, rt := range e.pools {
		if delta := poolDeltaShards(rt.pool.ShardStats(), poolsBefore[name]); delta.LogicalReads > 0 || delta.Evictions > 0 {
			report.Pools[name] = delta
		}
		report.Sharing.Add(rt.ssm.Stats())
	}
	return report, nil
}
