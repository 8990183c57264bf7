package realtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"scanshare/internal/buffer"
	"scanshare/internal/core"
	"scanshare/internal/disk"
	"scanshare/internal/trace"
)

// allPinnedBackoff scales BusyRetryDelay for the AllPinned acquire status:
// with no read in flight a frame only frees when another scan releases one,
// so the retry cadence follows page processing, not I/O completion.
const allPinnedBackoff = 8

// Run executes the specs concurrently, one goroutine per scan, and returns
// one result per spec (index-aligned). Cancelling ctx stops every scan at
// its next page boundary; stopped scans are deregistered cleanly and their
// results marked Stopped rather than failed. The returned error joins hard
// failures only (Manager rejections, store errors) — cancellation is not an
// error.
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

	if r.cfg.PushDelivery {
		return r.runPush(ctx, specs)
	}

	var pf *prefetcher
	if r.cfg.PrefetchWorkers > 0 {
		// Prefetch reads share the scans' timeout discipline (one
		// attempt, no retries — prefetch is best-effort), so a stalling
		// page cannot wedge a worker and starve the group's shared
		// read-ahead stream.
		read := func(pid disk.PageID) ([]byte, error) { return r.storeRead(ctx, pid, 0) }
		pf = newPrefetcher(r.cfg.Pool, read, r.cfg.Collector, r.cfg.Clock.Now,
			r.cfg.PrefetchWorkers, r.cfg.PrefetchQueueExtents, r.flights)
	}

	results := make([]ScanResult, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.runScan(ctx, i, specs[i], pf, &results[i])
		}()
	}
	wg.Wait()
	if pf != nil {
		pf.stop()
	}

	var errs []error
	for i := range results {
		if results[i].Err != nil {
			errs = append(errs, fmt.Errorf("scan %d: %w", i, results[i].Err))
		}
	}
	return results, errors.Join(errs...)
}

// runScan is the body of one scan worker.
func (r *Runner) runScan(ctx context.Context, idx int, spec ScanSpec, pf *prefetcher, res *ScanResult) {
	cfg := &r.cfg
	res.Scan = idx
	res.ID = core.NoScan
	hook := func(site Site) {
		if cfg.Hook != nil {
			cfg.Hook(idx, site)
		}
	}
	defer hook(SiteExit)

	hook(SiteSpawn)
	if spec.StartDelay > 0 {
		cfg.Sleep(ctx, spec.StartDelay)
	}
	if ctx.Err() != nil {
		res.Stopped = true
		return
	}

	end := spec.EndPage
	if end == 0 {
		end = spec.TablePages
	}
	length := end - spec.StartPage

	hook(SiteStartScan)
	id, pl, err := cfg.Manager.StartScan(core.ScanOpts{
		Table:             spec.Table,
		TablePages:        spec.TablePages,
		StartPage:         spec.StartPage,
		EndPage:           spec.EndPage,
		EstimatedDuration: spec.EstimatedDuration,
		Importance:        spec.Importance,
	}, cfg.Clock.Now())
	hook(SiteStarted)
	if err != nil {
		res.Err = err
		return
	}
	cfg.Collector.ScanStarted()
	res.ID = id
	res.Placement = pl
	res.Started = cfg.Clock.Now()

	// The scan span covers everything from here through EndScan; its close
	// (registered before the EndScan defer, so it runs after) carries the
	// scan's duration. With no pre-allocated spec.Span this is all no-ops.
	span := cfg.Tracer.OpenSpan(spec.Span, trace.SpanScan, int64(id), int64(spec.Table))
	defer span.Close()
	sc := span.Context()

	// A scan-aware pool (predictive policy) learns this scan's footprint
	// and initial speed estimate; progress reports below keep it current.
	// Every store in the engine lays table pages out contiguously, so the
	// device page of table-relative page 0 anchors the footprint.
	feedPool := cfg.Pool.ScanAware()
	if feedPool {
		base := spec.PageID(spec.StartPage) - disk.PageID(spec.StartPage)
		var seed float64
		if f, ok := cfg.Manager.ScanFeed(id); ok {
			seed = f.SpeedPagesSec
		}
		cfg.Pool.RegisterScan(int64(id), buffer.ScanFootprint{
			Base: base, Start: spec.StartPage, End: end, Origin: pl.Origin,
		}, seed)
		cfg.Collector.ScanFeedRegistered()
	}

	// The scan always deregisters, whatever path it leaves on: leaked
	// registrations would pin group structure and placement decisions for
	// every later scan of the table.
	defer func() {
		cfg.Pool.UnregisterScan(int64(id))
		hook(SiteEndScan)
		if err := cfg.Manager.EndScan(id, cfg.Clock.Now()); err != nil && res.Err == nil {
			res.Err = err
		}
		hook(SiteEnded)
		cfg.Collector.ScanEnded(res.Stopped)
		res.Done = cfg.Clock.Now()
	}()

	limit := length
	if spec.StopAfterPages > 0 && spec.StopAfterPages < length {
		limit = spec.StopAfterPages
		res.Stopped = true
	}
	interval := cfg.Manager.Config().PrefetchExtentPages
	reportAt := interval
	prio := core.PageNormal
	var deg degradeState
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
		if spec.PageDelay > 0 {
			cfg.Sleep(ctx, spec.PageDelay)
		}

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
			adv, err := cfg.Manager.ReportProgress(id, done, cfg.Clock.Now())
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
			if feedPool {
				if f, ok := cfg.Manager.ScanFeed(id); ok {
					cfg.Pool.UpdateScan(int64(id), f.Processed, f.SpeedPagesSec)
					cfg.Collector.ScanFeedUpdated()
				}
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
// out. Under a harness that supplied its own Sleep nothing may block off a
// hook site, and a virtual sleep has no "sooner": it gets the whole wait.
func (r *Runner) throttleWait(ctx context.Context, id core.ScanID, sc trace.SpanContext, table core.TableID, planned time.Duration, res *ScanResult) {
	cfg := &r.cfg
	t0 := cfg.Clock.Now()
	if r.virtualSleep {
		cfg.Sleep(ctx, planned)
	} else {
		wake := cfg.Manager.ParkThrottled(id)
		deadline := time.NewTimer(planned)
		select {
		case <-wake:
		case <-deadline.C:
		case <-ctx.Done():
		}
		deadline.Stop()
	}
	waited := cfg.Clock.Now() - t0
	if err := cfg.Manager.SettleThrottle(id, planned, waited); err != nil && res.Err == nil {
		res.Err = err
	}
	cfg.Collector.Throttled(waited)
	res.ThrottleWait += waited
	cfg.Tracer.EmitSpan(sc, trace.SpanThrottle, int64(id), int64(table), waited)
}

// degradeState tracks one scan's read-failure streak across pages and
// whether the scan is currently detached from its group. It lives on the
// scan worker's stack; the Manager holds the authoritative detached flag,
// this copy just avoids redundant Detach/Rejoin calls.
type degradeState struct {
	consecutive int // consecutive failed store read attempts
	detached    bool
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
func (r *Runner) fetchPage(ctx context.Context, id core.ScanID, sc trace.SpanContext, pid disk.PageID, hook func(Site), res *ScanResult, deg *degradeState) ([]byte, fetchOutcome) {
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
				cfg.Collector.OptimisticHit()
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
			readStart := cfg.Clock.Now()
			data, err := r.readPage(ctx, id, pid, hook, res, deg)
			readWait := cfg.Clock.Now() - readStart
			res.ReadWait += readWait
			cfg.Tracer.EmitSpan(sc, trace.SpanRead, int64(id), trace.NoID, readWait)
			if err != nil {
				cfg.Pool.Abort(pid)
				r.flights.finish(pid, fl, err)
				if ctx.Err() != nil {
					res.Stopped = true
					return nil, fetchStop
				}
				cfg.Collector.PageFailed()
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
			if fl, done, ok := r.flights.join(pid); ok {
				out, retry := r.waitFlight(ctx, id, sc, pid, fl, done, res)
				if retry {
					continue
				}
				return nil, out
			}
			cfg.Collector.BusyRetry()
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
			cfg.Collector.BusyRetry()
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
	t0 := cfg.Clock.Now()
	cfg.Sleep(ctx, d)
	wait := cfg.Clock.Now() - t0
	res.PoolWait += wait
	cfg.Tracer.EmitSpan(sc, trace.SpanPoolWait, int64(id), trace.NoID, wait)
}

// waitFlight blocks the scan on another caller's in-flight read of pid. On a
// successful fill it reports retry=true: the re-Acquire hits the now-valid
// frame and the waiter is accounted as an ordinary pool hit, having issued
// no physical I/O. A failed best-effort (prefetch) flight also reports
// retry=true — the frame was aborted, so the waiter's re-Acquire misses and
// runs this scan's own timeout/retry policy. A failed scan-led flight
// already spent the full retry budget, so its error propagates: the waiter
// records a degraded page (or fails) without duplicating retries, and
// without touching the pool — exactly one Abort (the leader's) is counted
// per failed coalesced read.
func (r *Runner) waitFlight(ctx context.Context, id core.ScanID, sc trace.SpanContext, pid disk.PageID, fl *flight, done <-chan struct{}, res *ScanResult) (out fetchOutcome, retry bool) {
	cfg := &r.cfg
	// Counted before blocking, so tests can gate the leader's store read
	// on the number of joined waiters.
	cfg.Collector.ReadCoalesced()
	res.CoalescedReads++
	cfg.Tracer.Emit(trace.Event{
		Kind: trace.KindReadCoalesced, Scan: int64(id), Page: int64(pid),
		Peer: trace.NoID, Table: trace.NoID, Prio: -1,
	})
	t0 := cfg.Clock.Now()
	stopped := false
	select {
	case <-ctx.Done():
		stopped = true
	case <-done:
	}
	wait := cfg.Clock.Now() - t0
	res.PoolWait += wait
	cfg.Tracer.EmitSpan(sc, trace.SpanPoolWait, int64(id), trace.NoID, wait)
	if stopped {
		res.Stopped = true
		return fetchStop, false
	}
	if fl.err == nil || fl.fallback {
		return 0, true
	}
	if ctx.Err() != nil {
		// The leader's error was (or is indistinguishable from) run
		// cancellation; stop quietly like any cancelled scan.
		res.Stopped = true
		return fetchStop, false
	}
	cfg.Collector.CoalescedFailure()
	res.CoalescedFailures++
	cfg.Collector.PageFailed()
	cfg.Tracer.Emit(trace.Event{
		Kind: trace.KindPageFailed, Scan: int64(id), Page: int64(pid),
		Peer: trace.NoID, Table: trace.NoID, Prio: -1,
	})
	if cfg.ContinueOnPageFailure {
		res.DegradedPages++
		return fetchSkip, false
	}
	res.Err = fl.err
	return fetchStop, false
}

// readPage performs the store read for a missed page: each attempt is
// bounded by ReadTimeout, failures are retried up to MaxReadRetries with
// exponential backoff, and the scan's degradation state advances — crossing
// DetachAfterFailures consecutive failures detaches the scan from group
// coordination, the first successful read rejoins it.
func (r *Runner) readPage(ctx context.Context, id core.ScanID, pid disk.PageID, hook func(Site), res *ScanResult, deg *degradeState) ([]byte, error) {
	cfg := &r.cfg
	backoff := cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		readStart := cfg.Clock.Now()
		data, err := r.storeRead(ctx, pid, attempt)
		if err == nil {
			cfg.Collector.PageReadTimed(cfg.Clock.Now() - readStart)
			deg.consecutive = 0
			if deg.detached {
				deg.detached = false
				hook(SiteRejoin)
				rerr := cfg.Manager.RejoinScan(id, cfg.Clock.Now())
				hook(SiteRejoined)
				if rerr != nil && res.Err == nil {
					res.Err = rerr
				}
				if cfg.Pool.ScanAware() {
					cfg.Pool.SetScanActive(int64(id), true)
				}
				cfg.Collector.ScanRejoined()
				res.Rejoins++
			}
			return data, nil
		}
		if ctx.Err() != nil {
			return nil, err // run cancelled, not a device failure
		}
		if errors.Is(err, context.DeadlineExceeded) {
			cfg.Collector.ReadTimedOut()
			res.ReadTimeouts++
		}
		deg.consecutive++
		if cfg.DetachAfterFailures > 0 && !deg.detached &&
			deg.consecutive >= cfg.DetachAfterFailures {
			deg.detached = true
			hook(SiteDetach)
			derr := cfg.Manager.DetachScan(id, cfg.Clock.Now())
			hook(SiteDetached)
			if derr != nil && res.Err == nil {
				res.Err = derr
			}
			if cfg.Pool.ScanAware() {
				// A detached scan's reports stop; its stale position
				// must not keep protecting pages.
				cfg.Pool.SetScanActive(int64(id), false)
			}
			cfg.Collector.ScanDetached()
			res.Detaches++
		}
		if attempt >= cfg.MaxReadRetries {
			return nil, err
		}
		cfg.Collector.ReadRetried()
		res.ReadRetries++
		hook(SiteRetry)
		cfg.Sleep(ctx, backoff)
		if backoff *= 2; backoff > cfg.MaxRetryBackoff {
			backoff = cfg.MaxRetryBackoff
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
}

// storeRead performs one read attempt against the page store, bounded by
// ReadTimeout. Context-aware stores get the deadline through their context;
// plain stores are read through a helper goroutine the runner abandons at
// the deadline (the goroutine ends when the underlying read returns).
func (r *Runner) storeRead(ctx context.Context, pid disk.PageID, attempt int) ([]byte, error) {
	cfg := &r.cfg
	if cfg.ReadTimeout <= 0 {
		if r.ctxStore != nil {
			return r.ctxStore.ReadPageAt(ctx, pid, attempt)
		}
		return cfg.Store.ReadPage(pid)
	}
	rctx, cancel := context.WithTimeout(ctx, cfg.ReadTimeout)
	defer cancel()
	if r.ctxStore != nil {
		return r.ctxStore.ReadPageAt(rctx, pid, attempt)
	}
	type result struct {
		data []byte
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		data, err := cfg.Store.ReadPage(pid)
		ch <- result{data, err}
	}()
	select {
	case out := <-ch:
		return out.data, out.err
	case <-rctx.Done():
		return nil, fmt.Errorf("realtime: read of page %d: %w", pid, rctx.Err())
	}
}

// releasePage unpins a processed page at the advised priority, recording
// bookkeeping errors (they indicate a runner bug, not a workload condition).
func (r *Runner) releasePage(pid disk.PageID, prio core.PagePriority, res *ScanResult) {
	if err := r.cfg.Pool.Release(pid, poolPriority(prio)); err != nil && res.Err == nil {
		res.Err = err
	}
}
