package realtime

import (
	"context"
	"errors"
	"fmt"
	"time"

	"scanshare/internal/buffer"
	"scanshare/internal/core"
	"scanshare/internal/disk"
	"scanshare/internal/metrics"
	"scanshare/internal/trace"
)

// allPinnedBackoff scales BusyRetryDelay for the AllPinned acquire status:
// with no read in flight a frame only frees when another scan releases one,
// so the retry cadence follows page processing, not I/O completion.
const allPinnedBackoff = 8

// Run executes the specs concurrently, one worker per scan in the runner's
// Env, and returns one result per spec (index-aligned). Cancelling ctx stops
// every scan at its next page boundary; stopped scans are deregistered
// cleanly and their results marked Stopped rather than failed. The returned
// error joins hard failures only (Manager rejections, store errors) —
// cancellation is not an error.
func (r *Runner) Run(ctx context.Context, specs []ScanSpec) ([]ScanResult, error) {
	if len(specs) == 0 {
		return nil, errors.New("realtime: Run with no scans")
	}
	for i, spec := range specs {
		if spec.TablePages <= 0 {
			return nil, fmt.Errorf("realtime: scan %d of table with %d pages", i, spec.TablePages)
		}
		if spec.PageID == nil {
			return nil, fmt.Errorf("realtime: scan %d without a PageID mapping", i)
		}
		if spec.StartDelay < 0 || spec.PageDelay < 0 || spec.StopAfterPages < 0 {
			return nil, fmt.Errorf("realtime: scan %d has a negative knob", i)
		}
	}

	var results []ScanResult
	if r.cfg.PushDelivery {
		var err error
		if results, err = r.runPush(ctx, specs); err != nil {
			return nil, err
		}
	} else {
		results = r.runPull(ctx, specs)
	}
	var errs []error
	for i := range results {
		if results[i].Err != nil {
			errs = append(errs, fmt.Errorf("scan %d: %w", i, results[i].Err))
		}
	}
	return results, errors.Join(errs...)
}

// runPull is Run's pull-mode body: the scans fetch their own pages, helped
// by the prefetch workers.
func (r *Runner) runPull(ctx context.Context, specs []ScanSpec) []ScanResult {
	var pf *prefetcher
	if r.cfg.PrefetchWorkers > 0 {
		// Prefetch reads share the scans' timeout discipline (one
		// attempt, no retries — prefetch is best-effort), so a stalling
		// page cannot wedge a worker and starve the group's shared
		// read-ahead stream.
		read := func(pid disk.PageID) ([]byte, error) { return r.storeRead(ctx, pid, 0) }
		pf = newPrefetcher(r.cfg.Pool, read, r.cfg.Collector, r.cfg.Env,
			r.cfg.PrefetchWorkers, len(specs), r.flights)
	}

	// Workers 0 … len(specs)-1 are the scans, the rest prefetch workers;
	// the last scan to finish closes the pipeline.
	results := make([]ScanResult, len(specs))
	r.cfg.Env.Run(len(specs)+r.cfg.PrefetchWorkers, func(i int) {
		if i >= len(specs) {
			pf.worker()
			return
		}
		r.runScan(ctx, i, specs[i], pf, &results[i])
		if pf != nil {
			pf.scanDone()
		}
	})
	return results
}

// scanLife is one scan's registration with the manager and the tracer,
// from beginScan to endScan, plus the range it covers.
type scanLife struct {
	id   core.ScanID
	pl   core.Placement
	span trace.Span
	sc   trace.SpanContext
	// end is the exclusive end page; the scan covers length pages from
	// the placement's origin and stops after limit of them.
	end, length, limit int
}

// beginScan waits out the scan's start delay, then registers it: a manager
// scan and a scan span. It reports false, with res saying why, when the scan must not
// run; otherwise the caller must call endScan.
func (r *Runner) beginScan(ctx context.Context, idx int, spec ScanSpec, hook func(Site), res *ScanResult) (l scanLife, ok bool) {
	cfg := &r.cfg
	res.Scan = idx
	res.ID = core.NoScan
	hook(SiteSpawn)
	cfg.Env.Sleep(ctx, spec.StartDelay)
	if ctx.Err() != nil {
		res.Stopped = true
		return l, false
	}

	l.end = spec.EndPage
	if l.end == 0 {
		l.end = spec.TablePages
	}
	l.length = l.end - spec.StartPage
	l.limit = l.length
	hook(SiteStartScan)
	id, pl, err := cfg.Manager.StartScan(core.ScanOpts{
		Table:             spec.Table,
		TablePages:        spec.TablePages,
		StartPage:         spec.StartPage,
		EndPage:           spec.EndPage,
		EstimatedDuration: spec.EstimatedDuration,
		Importance:        spec.Importance,
	}, cfg.Env.Now())
	hook(SiteStarted)
	if err != nil {
		res.Err = err
		return l, false
	}
	cfg.Collector.Add(metrics.ScansStarted, 1)
	l.id, l.pl = id, pl
	res.ID, res.Placement, res.Started = id, pl, cfg.Env.Now()

	// The scan span covers everything from here through EndScan and
	// carries the scan's duration. With no pre-allocated spec.Span this is
	// all no-ops.
	l.span = cfg.Tracer.OpenSpan(spec.Span, trace.SpanScan, int64(id), int64(spec.Table))
	l.sc = l.span.Context()

	if spec.StopAfterPages > 0 && spec.StopAfterPages < l.length {
		l.limit = spec.StopAfterPages
		res.Stopped = true
	}
	return l, true
}

// endScan deregisters a scan beginScan registered, whatever path it leaves
// on: leaked registrations would pin group structure and placement
// decisions for every later scan of the table.
func (r *Runner) endScan(l *scanLife, hook func(Site), res *ScanResult) {
	cfg := &r.cfg
	hook(SiteEndScan)
	if err := cfg.Manager.EndScan(l.id, cfg.Env.Now()); err != nil && res.Err == nil {
		res.Err = err
	}
	hook(SiteEnded)
	cfg.Collector.ScanEnded(res.Stopped)
	res.Done = cfg.Env.Now()
	l.span.Close()
}

// runScan is the body of one scan worker.
func (r *Runner) runScan(ctx context.Context, idx int, spec ScanSpec, pf *prefetcher, res *ScanResult) {
	cfg := &r.cfg
	hook := func(site Site) {
		if cfg.Hook != nil {
			cfg.Hook(idx, site)
		}
	}
	defer hook(SiteExit)
	l, ok := r.beginScan(ctx, idx, spec, hook, res)
	if !ok {
		return
	}
	defer r.endScan(&l, hook, res)
	id, pl, sc, length, limit := l.id, l.pl, l.sc, l.length, l.limit

	interval := cfg.Manager.Config().PrefetchExtentPages
	reportAt := interval
	prio := core.PageNormal
	var deg fetchState
	// The reads this scan led, and the time they took, up to its last
	// progress report: what it has already told the manager about read cost.
	var costedReads int64
	var costedWait time.Duration

	pageNo := func(i int) int {
		return spec.StartPage + (pl.Origin-spec.StartPage+i)%length
	}
	// pageAt is the scan-order index → device page mapping prefetch
	// requests carry, so an extent is just a range of indices.
	pageAt := func(i int) disk.PageID { return spec.PageID(pageNo(i)) }

	for v := 0; v < limit; v++ {
		if ctx.Err() != nil {
			res.Stopped = true
			return
		}
		// At each extent boundary, ask the prefetch pipeline to stage
		// the following extent. Requests are deduplicated downstream,
		// so a whole group effectively issues one read-ahead stream.
		if pf != nil && v%interval == 0 {
			from := v + interval
			pf.enqueue(pageAt, from, min(from+interval, limit))
		}

		pid := pageAt(v)
		data, out := r.fetchPage(ctx, id, sc, pid, hook, res, &deg)
		if out == fetchStop {
			return
		}
		pinned := out == fetchOK
		if pinned || out == fetchOKOpt {
			if len(data) > 0 {
				res.Checksum += uint64(data[0]) + uint64(data[len(data)-1])<<8
			}
			if spec.OnPage != nil && data != nil {
				spec.OnPage(pageNo(v), data)
			}
			res.PagesRead++
		}
		cfg.Env.Sleep(ctx, spec.PageDelay)

		// Progress counts degraded (skipped) pages too: the manager
		// tracks the scan's *position*, and the scan has moved past the
		// page whether or not its bytes arrived.
		done := v + 1
		if done >= reportAt || done == limit {
			hook(SiteReport)
			if reads := res.Misses - costedReads; reads > 0 {
				cfg.Manager.ObserveReadCost(int(reads), res.ReadWait-costedWait)
				costedReads, costedWait = res.Misses, res.ReadWait
			}
			adv, err := cfg.Manager.ReportProgress(id, done, cfg.Env.Now())
			hook(SiteReported)
			if err != nil {
				if pinned {
					r.releasePage(pid, prio, res)
				}
				res.Err = err
				return
			}
			if cfg.OnAdvice != nil {
				cfg.OnAdvice(idx, done, adv)
			}
			prio = adv.Priority
			next := adv.NextReportPages
			if next <= 0 {
				next = interval
			}
			reportAt = done + next
			if adv.Wait > 0 {
				hook(SiteThrottle)
				r.throttleWait(ctx, id, sc, spec.Table, adv.Wait, res)
			}
		}
		if pinned {
			r.releasePage(pid, prio, res)
		}
	}
}

// throttleWait waits out a throttle of at most planned and records how long
// that took on the runner's clock — the one figure the manager's fairness
// budget, the collector, the scan result and the throttle span all carry.
// The scan parks on the manager's wake-up, which fires as soon as the wait
// has nothing left to achieve; planned is the deadline and ctx the third way
// out.
func (r *Runner) throttleWait(ctx context.Context, id core.ScanID, sc trace.SpanContext, table core.TableID, planned time.Duration, res *ScanResult) {
	cfg := &r.cfg
	t0 := cfg.Env.Now()
	cfg.Env.Park(ctx, cfg.Manager.ParkThrottled(id), planned)
	waited := cfg.Env.Now() - t0
	if err := cfg.Manager.SettleThrottle(id, planned, waited); err != nil && res.Err == nil {
		res.Err = err
	}
	cfg.Collector.Throttled(waited)
	res.ThrottleWait += waited
	cfg.Tracer.EmitSpan(sc, trace.SpanThrottle, int64(id), int64(table), waited)
}

// fetchState is what one worker carries from page to page: the scan's
// read-failure streak, whether the scan is currently detached from its
// group, and the worker's place on flight wait lists. The Manager holds the
// authoritative detached flag; this copy just avoids redundant
// Detach/Rejoin calls. One worker uses a fetchState at a time.
type fetchState struct {
	consecutive int // consecutive failed store read attempts
	detached    bool
	waiter      *flightWaiter // made at the worker's first coalesced wait
}

// fetchOutcome says what fetchPage produced.
type fetchOutcome int

const (
	// fetchOK: the page is pinned and data is valid; the caller must
	// release it.
	fetchOK fetchOutcome = iota
	// fetchOKOpt: data is valid but came from the pool's optimistic
	// lock-free read path — nothing is pinned and the caller must NOT
	// release.
	fetchOKOpt
	// fetchSkip: the page permanently failed and the scan continues
	// degraded; nothing is pinned.
	fetchSkip
	// fetchStop: the scan must stop (cancellation or hard error, recorded
	// in res); nothing is pinned.
	fetchStop
)

// fetchPage pins pid, filling it from the store on a miss — with timeouts,
// retries, and degradation tracking — and backing off while another worker's
// read is in flight. sc is the owning scan's span context: physical reads
// and pool waits emit child spans under it and accumulate in res, all on
// the slow paths only — a pool hit measures nothing.
func (r *Runner) fetchPage(ctx context.Context, id core.ScanID, sc trace.SpanContext, pid disk.PageID, hook func(Site), res *ScanResult, deg *fetchState) ([]byte, fetchOutcome) {
	cfg := &r.cfg
	for {
		// Lock-free fast path first: under array translation a resident,
		// settled page is served without touching the shard mutex (and
		// without pinning — eviction can't tear the immutable content cell
		// out from under us). Map-translation pools return false
		// immediately with no side effects, so the deterministic replay
		// goldens are unaffected. Retrying it per loop iteration also lets
		// a Busy waiter catch the page the moment a coalesced Fill settles
		// its version.
		if data, ok := cfg.Pool.ReadOptimistic(pid); ok {
			if !r.skipPageCount {
				cfg.Collector.PageHit()
				cfg.Collector.Add(metrics.OptimisticHits, 1)
			}
			res.Hits++
			res.OptimisticHits++
			return data, fetchOKOpt
		}
		st, data := cfg.Pool.Acquire(pid)
		switch st {
		case buffer.Hit:
			if !r.skipPageCount {
				cfg.Collector.PageHit()
			}
			res.Hits++
			return data, fetchOK
		case buffer.Miss:
			if !r.skipPageCount {
				cfg.Collector.PageMiss()
			}
			res.Misses++
			// This caller won the pool's pending frame and leads the
			// physical read; with coalescing on, register the flight so
			// group members missing on the same page join it instead of
			// sleep-polling. The frame must be settled (Fill/Abort)
			// before finish wakes them.
			fl := r.flights.begin(pid, false)
			readStart := cfg.Env.Now()
			data, err := r.readPage(ctx, id, pid, hook, res, deg)
			readWait := cfg.Env.Now() - readStart
			res.ReadWait += readWait
			cfg.Tracer.EmitSpan(sc, trace.SpanRead, int64(id), trace.NoID, readWait)
			if err != nil {
				cfg.Pool.Abort(pid)
				r.flights.finish(pid, fl, err)
				if ctx.Err() != nil {
					res.Stopped = true
					return nil, fetchStop
				}
				cfg.Collector.Add(metrics.PagesFailed, 1)
				cfg.Tracer.Emit(trace.Event{
					Kind: trace.KindPageFailed, Scan: int64(id), Page: int64(pid),
					Peer: trace.NoID, Table: trace.NoID, Prio: -1,
				})
				if cfg.ContinueOnPageFailure {
					res.DegradedPages++
					return nil, fetchSkip
				}
				res.Err = err
				return nil, fetchStop
			}
			if err := cfg.Pool.Fill(pid, data); err != nil {
				r.flights.finish(pid, fl, err)
				res.Err = err
				return nil, fetchStop
			}
			r.flights.finish(pid, fl, nil)
			return data, fetchOK
		case buffer.Busy:
			if r.flights.join(pid, &deg.waiter) {
				out, retry := r.waitFlight(ctx, id, sc, pid, deg.waiter, res)
				if retry {
					continue
				}
				return nil, out
			}
			cfg.Collector.Add(metrics.BusyRetries, 1)
			res.BusyRetries++
			hook(SiteBusy)
			r.poolSleep(ctx, id, sc, cfg.BusyRetryDelay, res)
			if ctx.Err() != nil {
				res.Stopped = true
				return nil, fetchStop
			}
		case buffer.AllPinned:
			// Every frame is pinned and no read is in flight: a frame
			// only frees when some scan releases one, which happens on
			// a page-processing timescale, not an I/O one. Back off
			// well past the busy delay instead of spinning.
			cfg.Collector.Add(metrics.BusyRetries, 1)
			res.BusyRetries++
			hook(SiteBusy)
			r.poolSleep(ctx, id, sc, allPinnedBackoff*cfg.BusyRetryDelay, res)
			if ctx.Err() != nil {
				res.Stopped = true
				return nil, fetchStop
			}
		default:
			res.Err = fmt.Errorf("realtime: unexpected acquire status %v", st)
			return nil, fetchStop
		}
	}
}

// poolSleep is a pool-contention backoff: the sleep is measured, accumulated
// in res.PoolWait, and emitted as a pool-wait span under the scan.
func (r *Runner) poolSleep(ctx context.Context, id core.ScanID, sc trace.SpanContext, d time.Duration, res *ScanResult) {
	cfg := &r.cfg
	t0 := cfg.Env.Now()
	cfg.Env.Sleep(ctx, d)
	wait := cfg.Env.Now() - t0
	res.PoolWait += wait
	cfg.Tracer.EmitSpan(sc, trace.SpanPoolWait, int64(id), trace.NoID, wait)
}

// waitFlight parks the scan on another caller's in-flight read of pid, which
// w has joined. On a successful fill it reports retry=true: the re-Acquire
// hits the now-valid frame and the waiter is accounted as an ordinary pool
// hit, having issued no physical I/O. A failed best-effort (prefetch)
// flight also reports retry=true — the frame was aborted, so the waiter's
// re-Acquire misses and runs this scan's own timeout/retry policy. A failed scan-led flight
// already spent the full retry budget, so its error propagates: the waiter
// records a degraded page (or fails) without duplicating retries, and
// without touching the pool — exactly one Abort (the leader's) is counted
// per failed coalesced read.
func (r *Runner) waitFlight(ctx context.Context, id core.ScanID, sc trace.SpanContext, pid disk.PageID, w *flightWaiter, res *ScanResult) (out fetchOutcome, retry bool) {
	cfg := &r.cfg
	// Counted before blocking, so tests can gate the leader's store read
	// on the number of joined waiters.
	cfg.Collector.Add(metrics.ReadsCoalesced, 1)
	res.CoalescedReads++
	cfg.Tracer.Emit(trace.Event{
		Kind: trace.KindReadCoalesced, Scan: int64(id), Page: int64(pid),
		Peer: trace.NoID, Table: trace.NoID, Prio: -1,
	})
	t0 := cfg.Env.Now()
	finished := r.flights.wait(ctx, cfg.Env, w)
	wait := cfg.Env.Now() - t0
	res.PoolWait += wait
	cfg.Tracer.EmitSpan(sc, trace.SpanPoolWait, int64(id), trace.NoID, wait)
	if !finished {
		res.Stopped = true
		return fetchStop, false
	}
	if w.err == nil || w.fallback {
		return 0, true
	}
	if ctx.Err() != nil {
		// The leader's error was (or is indistinguishable from) run
		// cancellation; stop quietly like any cancelled scan.
		res.Stopped = true
		return fetchStop, false
	}
	cfg.Collector.Add(metrics.CoalescedFailures, 1)
	res.CoalescedFailures++
	cfg.Collector.Add(metrics.PagesFailed, 1)
	cfg.Tracer.Emit(trace.Event{
		Kind: trace.KindPageFailed, Scan: int64(id), Page: int64(pid),
		Peer: trace.NoID, Table: trace.NoID, Prio: -1,
	})
	if cfg.ContinueOnPageFailure {
		res.DegradedPages++
		return fetchSkip, false
	}
	res.Err = w.err
	return fetchStop, false
}

// readPage performs the store read for a missed page: each attempt is
// bounded by ReadTimeout, failures are retried up to MaxReadRetries with
// exponential backoff, and the scan's degradation state advances — crossing
// DetachAfterFailures consecutive failures detaches the scan from group
// coordination, the first successful read rejoins it.
func (r *Runner) readPage(ctx context.Context, id core.ScanID, pid disk.PageID, hook func(Site), res *ScanResult, deg *fetchState) ([]byte, error) {
	cfg := &r.cfg
	backoff := cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		readStart := cfg.Env.Now()
		data, err := r.storeRead(ctx, pid, attempt)
		if err == nil {
			cfg.Collector.PageReadTimed(cfg.Env.Now() - readStart)
			deg.consecutive = 0
			if deg.detached {
				deg.detached = false
				hook(SiteRejoin)
				rerr := cfg.Manager.RejoinScan(id, cfg.Env.Now())
				hook(SiteRejoined)
				if rerr != nil && res.Err == nil {
					res.Err = rerr
				}
				cfg.Collector.Add(metrics.ScanRejoins, 1)
				res.Rejoins++
			}
			return data, nil
		}
		if ctx.Err() != nil {
			return nil, err // run cancelled, not a device failure
		}
		if errors.Is(err, context.DeadlineExceeded) {
			cfg.Collector.Add(metrics.ReadTimeouts, 1)
			res.ReadTimeouts++
		}
		deg.consecutive++
		if cfg.DetachAfterFailures > 0 && !deg.detached &&
			deg.consecutive >= cfg.DetachAfterFailures {
			deg.detached = true
			hook(SiteDetach)
			derr := cfg.Manager.DetachScan(id, cfg.Env.Now())
			hook(SiteDetached)
			if derr != nil && res.Err == nil {
				res.Err = derr
			}
			cfg.Collector.Add(metrics.ScanDetaches, 1)
			res.Detaches++
		}
		if attempt >= cfg.MaxReadRetries {
			return nil, err
		}
		cfg.Collector.Add(metrics.ReadRetries, 1)
		res.ReadRetries++
		hook(SiteRetry)
		cfg.Env.Sleep(ctx, backoff)
		if backoff *= 2; backoff > cfg.MaxRetryBackoff {
			backoff = cfg.MaxRetryBackoff
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
}

// storeRead performs one read attempt against the page store, bounded by
// ReadTimeout on the Env's clock. A ContextStore is handed the timeout and
// waits on the Env itself; a plain store is read in a helper worker the
// runner abandons at the deadline (the helper ends when the underlying read
// returns).
func (r *Runner) storeRead(ctx context.Context, pid disk.PageID, attempt int) ([]byte, error) {
	cfg := &r.cfg
	if r.ctxStore != nil {
		return r.ctxStore.ReadPageAt(ctx, cfg.Env, cfg.ReadTimeout, pid, attempt)
	}
	if cfg.ReadTimeout <= 0 {
		return cfg.Store.ReadPage(pid)
	}
	var data []byte
	var err error
	done := make(chan struct{}, 1)
	cfg.Env.Go(func() {
		data, err = cfg.Store.ReadPage(pid)
		done <- struct{}{}
	})
	if cfg.Env.Park(ctx, done, cfg.ReadTimeout) {
		return data, err
	}
	cause := ctx.Err()
	if cause == nil {
		cause = context.DeadlineExceeded
	}
	return nil, fmt.Errorf("realtime: read of page %d: %w", pid, cause)
}

// releasePage unpins a processed page at the advised priority, recording
// bookkeeping errors (they indicate a runner bug, not a workload condition).
func (r *Runner) releasePage(pid disk.PageID, prio core.PagePriority, res *ScanResult) {
	if err := r.cfg.Pool.Release(pid, poolPriority(prio)); err != nil && res.Err == nil {
		res.Err = err
	}
}
