package realtime

import (
	"context"
	"fmt"
	"sync"
	"time"

	"scanshare/internal/core"
	"scanshare/internal/disk"
	"scanshare/internal/trace"
)

// Push-based delivery (Config.PushDelivery).
//
// Pull mode runs one fetch loop per scan: N group members issue N logical
// page streams and rely on coalescing, prefetch, and throttle advice to keep
// them overlapped. Push mode inverts the flow. One reader goroutine per
// scanned table drains the table's page range exactly once per demand lap,
// batches the immutable frame references, and fans each batch out through
// bounded per-subscriber channels:
//
//   - Group membership is subscription: a scan attaches mid-stream and is
//     admitted at the next batch boundary; its catch-up cursor is the stream
//     position at admission, and it completes after exactly one circular lap
//     over its footprint (KindSubscribe records the cursor).
//   - Throttling is flow control: the reader blocks on the slowest admitted
//     subscriber's full channel (KindBackpressureStall, counted as a
//     throttle wait), bounded per subscriber by the manager's fairness cap.
//     A subscriber that exhausts its stall budget is demoted — its channel
//     closes and it pulls its remaining footprint itself — so one stuck
//     consumer can never starve the group.
//   - Faults reuse the pull-mode machinery: the reader reads on behalf of an
//     owner subscriber, so retries, timeouts, and detach/rejoin hit that
//     subscriber's manager lifecycle. When the owner's retries are exhausted
//     the hub promotes the next subscriber to owner and re-issues the read;
//     only fully settled batches are ever delivered, so a torn read (an
//     error by construction) can never reach a consumer.
//
// Locking: the hub mutex guards only the subscriber lists, the stream
// position, and the reader-liveness flag. It is never held across I/O,
// channel sends, or pool calls; all per-subscriber stream accounting is
// reader-goroutine-only. See CONCURRENCY.md for the full ordering argument.

// pushBatch is one delivery unit: a run of consecutive table-relative pages
// starting at start. pages[i] holds the immutable frame reference of page
// start+i; a nil entry marks a page declared failed after every owner's
// retries were exhausted (consumers count it degraded, as in pull mode).
type pushBatch struct {
	start int
	pages [][]byte
}

// subReason says why a subscriber's channel was closed. It is written by the
// reader before close(ch); the channel close publishes it to the consumer.
type subReason uint8

const (
	// subDone: the stream covered the subscriber's footprint.
	subDone subReason = iota
	// subDemoted: the subscriber exhausted its stall budget and must pull
	// its remaining footprint itself.
	subDemoted
	// subFailed: the stream aborted on a hard read error (held in err).
	subFailed
	// subCancelled: the run's context was cancelled.
	subCancelled
)

// pushSub is one subscription. The channel pair is shared with the consumer;
// everything below the marker is touched only by the reader goroutine (or by
// the consumer strictly after the channel closed, which publishes it).
type pushSub struct {
	scan       int // index into the spec slice
	id         core.ScanID
	start, end int // footprint [start, end)

	ch   chan pushBatch
	gone chan struct{} // closed by the consumer when it stops reading

	// Reader-only stream accounting.
	cursor      int           // stream position of the first batch
	streamLeft  int           // stream positions until the lap returns to cursor
	remaining   int           // footprint pages not yet streamed to this sub
	stallBudget time.Duration // fairness cap on reader stalls for this sub
	stalled     time.Duration // accumulated reader stall on this sub
	deg         fetchState    // owner-side detach tracking
	detaches    int           // reader-side detach count, merged by the consumer
	rejoins     int
	retries     int64 // reader-side read retries attributed to this owner
	timeouts    int64
	// span is the subscriber's scan-span context; reads the sub owns emit
	// their read/pool-wait spans under it. readWait and poolWait are the
	// matching reader-side durations, merged by the consumer at close.
	span     trace.SpanContext
	readWait time.Duration
	poolWait time.Duration
	done     bool // channel closed

	// Published by close(ch).
	reason subReason
	err    error
}

// pushHub is one table's push stream within a Run: the subscription registry
// and the reader goroutine's state.
type pushHub struct {
	r      *Runner // reader-side runner: page hit/miss counting suppressed
	ctx    context.Context
	table  core.TableID
	pages  int
	pageID func(pageNo int) disk.PageID
	batch  int
	queue  int

	mu         sync.Mutex
	pos        int // next stream position (table-relative)
	subs       []*pushSub
	pending    []*pushSub
	readerLive bool

	wg sync.WaitGroup

	// Reader-only: round-robin owner cursor for read attribution and
	// promotion after permanent failures.
	ownerIdx int
}

// subscribe registers a consumer and makes sure a reader serves it. origin
// seeds the stream position when this subscription (re)starts the reader;
// otherwise the subscriber joins wherever the stream is at admission.
func (h *pushHub) subscribe(scan int, id core.ScanID, span trace.SpanContext, start, end, origin int, stallBudget time.Duration) *pushSub {
	s := &pushSub{
		scan: scan, id: id, start: start, end: end,
		ch:          make(chan pushBatch, h.queue),
		gone:        make(chan struct{}),
		streamLeft:  h.pages,
		remaining:   end - start,
		stallBudget: stallBudget,
		span:        span,
	}
	h.mu.Lock()
	h.pending = append(h.pending, s)
	if !h.readerLive {
		h.readerLive = true
		h.pos = origin % h.pages
		h.wg.Add(1)
		go h.readLoop()
	}
	h.mu.Unlock()
	return s
}

// readLoop drives the stream until no subscriber is left (or the stream
// aborts). scratch absorbs the fetch path's per-scan bookkeeping; its page
// counters are discarded — the consumers account delivered pages — but its
// Err/Stopped fields steer the abort paths.
func (h *pushHub) readLoop() {
	defer h.wg.Done()
	var scratch ScanResult
	for h.step(&scratch) {
	}
}

// step runs one reader iteration: admit and prune subscribers, skip
// stretches nobody needs, read one batch, deliver it. It returns false when
// the reader exits (no subscribers, cancellation, or a fatal stream error).
func (h *pushHub) step(scratch *ScanResult) bool {
	h.mu.Lock()
	h.pruneLocked()
	h.admitLocked()
	if len(h.subs) == 0 {
		h.readerLive = false
		h.mu.Unlock()
		return false
	}
	dist, ok := h.nextNeededLocked()
	if !ok {
		// Every live subscriber's window is exhausted — close them out.
		for _, s := range h.subs {
			h.closeSub(s, subDone, nil)
		}
		h.subs = nil
		h.readerLive = false
		h.mu.Unlock()
		return false
	}
	h.advanceLocked(dist)
	start := h.pos
	k := min(h.batch, h.pages-start)
	h.pos = (start + k) % h.pages
	// Snapshot only open subscriptions: a sub closed here (lap exhausted by
	// the skip) may already be past EndScan by the time the batch reads, so
	// it must neither own reads nor receive deliveries.
	live := make([]*pushSub, 0, len(h.subs))
	for _, s := range h.subs {
		if !s.done {
			live = append(live, s)
		}
	}
	h.mu.Unlock()
	if len(live) == 0 {
		return true // next step prunes and re-evaluates
	}

	b, ok := h.readBatch(scratch, start, k, live)
	if !ok {
		return false
	}
	h.deliver(b, live)
	return true
}

// pruneLocked drops subscribers that finished or went away.
func (h *pushHub) pruneLocked() {
	kept := h.subs[:0]
	for _, s := range h.subs {
		if s.done {
			continue
		}
		select {
		case <-s.gone:
			h.closeSub(s, subDone, nil)
			continue
		default:
		}
		kept = append(kept, s)
	}
	h.subs = kept
}

// admitLocked moves pending subscriptions into the live set at the current
// batch boundary; the stream position becomes their catch-up cursor. The
// manager placed each subscriber at its group's last reported position, which
// the stream may be up to a queue of batches past, so it is told where the
// subscriber really begins — before its first report, since no page reaches
// it before admission. That fails only for a scan that already ended.
func (h *pushHub) admitLocked() {
	for _, s := range h.pending {
		s.cursor = h.pos
		origin := h.pos
		if origin < s.start || origin >= s.end {
			origin = s.start // the first footprint page the stream reaches
		}
		_ = h.r.cfg.Manager.MoveOrigin(s.id, origin)
		h.subs = append(h.subs, s)
		h.r.cfg.Tracer.Emit(trace.Event{
			Kind: trace.KindSubscribe, Scan: int64(s.id), Table: int64(h.table),
			Page: int64(h.pos), Count: int32(len(h.subs)), Peer: trace.NoID, Prio: -1,
		})
	}
	h.pending = nil
}

// nextNeededLocked finds the stream distance to the next position some live
// subscriber still needs: the position is inside its footprint and inside
// its remaining lap window. ok is false when no such position exists.
func (h *pushHub) nextNeededLocked() (dist int, ok bool) {
	for d := 0; d < h.pages; d++ {
		p := h.pos + d
		if p >= h.pages {
			p -= h.pages
		}
		for _, s := range h.subs {
			if s.remaining > 0 && p >= s.start && p < s.end && d < s.streamLeft {
				return d, true
			}
		}
	}
	return 0, false
}

// advanceLocked skips dist stream positions. Skipped positions count against
// every subscriber's lap window — the stream passed them — but cannot touch
// remaining, since nextNeededLocked proved no live subscriber needs them.
func (h *pushHub) advanceLocked(dist int) {
	if dist == 0 {
		return
	}
	h.pos = (h.pos + dist) % h.pages
	for _, s := range h.subs {
		s.streamLeft -= min(dist, s.streamLeft)
		if s.streamLeft == 0 {
			h.closeSub(s, subDone, nil)
		}
	}
}

// readBatch reads pages [start, start+k) on behalf of the current owner
// subscriber. ok=false means the stream aborted and every subscriber has
// been closed out.
func (h *pushHub) readBatch(scratch *ScanResult, start, k int, live []*pushSub) (pushBatch, bool) {
	b := pushBatch{start: start, pages: make([][]byte, k)}
	for i := 0; i < k; i++ {
		data, ok, fatal := h.readOne(scratch, h.pageID(start+i), live)
		if fatal {
			return pushBatch{}, false
		}
		if ok {
			b.pages[i] = data
		}
	}
	return b, true
}

// readOne fetches one page through the pull-mode fetch path, attributed to
// the current owner subscriber. A permanent failure promotes the next live
// subscriber to owner and re-issues the read; when every subscriber's
// retries are spent the page is degraded (ContinueOnPageFailure) or the
// stream aborts.
func (h *pushHub) readOne(scratch *ScanResult, pid disk.PageID, live []*pushSub) (data []byte, ok, fatal bool) {
	cfg := &h.r.cfg
	var lastErr error
	for tried := 0; ; tried++ {
		s := live[h.ownerIdx%len(live)]
		hook := func(site Site) {
			if cfg.Hook != nil {
				cfg.Hook(s.scan, site)
			}
		}
		d0, r0 := scratch.Detaches, scratch.Rejoins
		rr0, to0 := scratch.ReadRetries, scratch.ReadTimeouts
		rw0, pw0 := scratch.ReadWait, scratch.PoolWait
		data, out := h.r.fetchPage(h.ctx, s.id, s.span, pid, hook, scratch, &s.deg)
		s.detaches += scratch.Detaches - d0
		s.rejoins += scratch.Rejoins - r0
		s.retries += scratch.ReadRetries - rr0
		s.timeouts += scratch.ReadTimeouts - to0
		s.readWait += scratch.ReadWait - rw0
		s.poolWait += scratch.PoolWait - pw0
		if scratch.Err != nil && out != fetchStop {
			// Bookkeeping error (manager rejection) outside the normal
			// stop path — treat as fatal rather than limp on.
			h.shutdown(subFailed, scratch.Err)
			return nil, false, true
		}
		switch out {
		case fetchOK:
			// Collect the immutable frame reference, then unpin: pool
			// content cells are never rewritten in place, so the batch
			// stays valid past release (and even past eviction).
			h.r.releasePage(pid, core.PageNormal, scratch)
			if scratch.Err != nil {
				h.shutdown(subFailed, scratch.Err)
				return nil, false, true
			}
			return data, true, false
		case fetchOKOpt:
			return data, true, false
		case fetchSkip:
			lastErr = nil // degraded under ContinueOnPageFailure
		case fetchStop:
			if scratch.Stopped || h.ctx.Err() != nil {
				h.shutdown(subCancelled, nil)
				return nil, false, true
			}
			lastErr = scratch.Err
			scratch.Err = nil
		}
		// Promote the next subscriber to owner and retry the page with its
		// fresh degradation budget.
		h.ownerIdx++
		if tried+1 >= len(live) {
			if lastErr != nil {
				h.shutdown(subFailed, lastErr)
				return nil, false, true
			}
			return nil, false, false // degraded: nil batch entry
		}
	}
}

// deliver fans one batch out to the live subscribers, clipping each
// subscriber's view at its lap window so a wrapped stream never re-delivers
// pages past its catch-up cursor.
func (h *pushHub) deliver(b pushBatch, live []*pushSub) {
	for _, s := range live {
		if s.done {
			continue
		}
		kk := min(len(b.pages), s.streamLeft)
		if kk <= 0 {
			h.closeSub(s, subDone, nil)
			continue
		}
		if !h.send(s, pushBatch{start: b.start, pages: b.pages[:kk]}) {
			continue
		}
		s.streamLeft -= kk
		s.remaining -= overlap(b.start, b.start+kk, s.start, s.end)
		if s.remaining <= 0 || s.streamLeft <= 0 {
			h.closeSub(s, subDone, nil)
		}
	}
}

// send pushes one batch view into s's channel. A full channel is the flow-
// control moment: the stall is counted as a throttle wait and bounded by the
// subscriber's remaining fairness budget, past which the subscriber is
// demoted to pulling. Returns false when the batch was not delivered (the
// subscriber is gone, demoted, or the run is cancelled).
func (h *pushHub) send(s *pushSub, view pushBatch) bool {
	select {
	case s.ch <- view:
		return true
	case <-s.gone:
		return false
	default:
	}
	cfg := &h.r.cfg
	cfg.Collector.SubscriberStalled()
	t0 := cfg.Env.Now()
	sent := false
	budget := s.stallBudget - s.stalled
	if budget > 0 {
		timer := time.NewTimer(budget)
		select {
		case s.ch <- view:
			sent = true
		case <-s.gone:
		case <-h.ctx.Done():
		case <-timer.C:
		}
		timer.Stop()
	}
	wait := cfg.Env.Now() - t0
	s.stalled += wait
	if wait > 0 {
		cfg.Collector.Throttled(wait)
	}
	cfg.Tracer.Emit(trace.Event{
		Kind: trace.KindBackpressureStall, Scan: int64(s.id), Table: int64(h.table),
		Page: int64(view.start), Wait: wait, Peer: trace.NoID, Prio: -1,
	})
	if sent {
		return true
	}
	if h.ctx.Err() != nil || isGone(s.gone) {
		return false // cancellation or departure; no demotion implied
	}
	cfg.Collector.PushDemoted()
	h.closeSub(s, subDemoted, nil)
	return false
}

// closeSub publishes the close reason and closes the subscriber's channel.
// Reader-goroutine-only; idempotent.
func (h *pushHub) closeSub(s *pushSub, reason subReason, err error) {
	if s.done {
		return
	}
	s.reason, s.err = reason, err
	s.done = true
	close(s.ch)
}

// shutdown aborts the stream: every live and pending subscriber is closed
// with the given reason and the reader retires. A later subscribe starts a
// fresh stream, so stragglers cannot strand.
func (h *pushHub) shutdown(reason subReason, err error) {
	h.mu.Lock()
	subs := append(h.subs, h.pending...)
	h.subs, h.pending = nil, nil
	h.readerLive = false
	h.mu.Unlock()
	for _, s := range subs {
		h.closeSub(s, reason, err)
	}
}

func isGone(gone chan struct{}) bool {
	select {
	case <-gone:
		return true
	default:
		return false
	}
}

// overlap returns |[a0,a1) ∩ [b0,b1)|.
func overlap(a0, a1, b0, b1 int) int {
	lo, hi := max(a0, b0), min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// runPush is Run's push-mode body: one hub per table, one subscriber
// goroutine per spec. Prefetching is not started — the hub reader is the
// group's read-ahead stream.
func (r *Runner) runPush(ctx context.Context, specs []ScanSpec) ([]ScanResult, error) {
	// Hubs key on the table; every spec of one table must agree on its
	// geometry, since the hub reads with the first spec's page mapping.
	hubs := make(map[core.TableID]*pushHub)
	rr := *r
	rr.skipPageCount = true
	for i, spec := range specs {
		h, ok := hubs[spec.Table]
		if !ok {
			hubs[spec.Table] = &pushHub{
				r: &rr, ctx: ctx, table: spec.Table,
				pages: spec.TablePages, pageID: spec.PageID,
				batch: r.cfg.PushBatchPages, queue: r.cfg.SubscriberQueueBatches,
			}
			continue
		}
		if h.pages != spec.TablePages {
			return nil, fmt.Errorf("realtime: scan %d sizes table %v at %d pages, scan 0 at %d",
				i, spec.Table, spec.TablePages, h.pages)
		}
	}

	results := make([]ScanResult, len(specs))
	r.cfg.Env.Run(len(specs), func(i int) {
		r.runPushScan(ctx, i, specs[i], hubs[specs[i].Table], &results[i])
	})
	for _, h := range hubs {
		h.wg.Wait()
	}
	return results, nil
}

// pushStallBudget derives a subscriber's fairness cap on reader stalls: the
// explicit override, or MaxThrottleFraction of its estimated duration — the
// exact budget pull-mode throttling grants — with the manager's default
// speed standing in when the estimate is unknown.
func (r *Runner) pushStallBudget(spec ScanSpec, length int) time.Duration {
	if r.cfg.PushStallBudget > 0 {
		return r.cfg.PushStallBudget
	}
	mc := r.cfg.Manager.Config()
	est := spec.EstimatedDuration
	if est <= 0 {
		speed := mc.DefaultSpeedPagesPerSec
		if speed <= 0 {
			speed = 1000
		}
		est = time.Duration(float64(length) / speed * float64(time.Second))
	}
	return time.Duration(mc.MaxThrottleFraction * float64(est))
}

// runPushScan is the body of one push-mode subscriber: the same manager
// lifecycle as a pull scan, with the fetch loop replaced by batch
// consumption. Flow control replaces throttling, so advice is settled at
// once as a wait of zero: it costs the fairness budget and Stats.ThrottleTime
// nothing. Progress reports still feed grouping and traces, and through the
// manager the predictive pool.
func (r *Runner) runPushScan(ctx context.Context, idx int, spec ScanSpec, hub *pushHub, res *ScanResult) {
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
	id, sc, end, length, limit := l.id, l.sc, l.end, l.length, l.limit

	sub := hub.subscribe(idx, id, sc, spec.StartPage, end, l.pl.Origin, r.pushStallBudget(spec, length))
	goneOnce := sync.OnceFunc(func() { close(sub.gone) })
	defer goneOnce()

	covered := make([]bool, length)
	processed := 0
	interval := cfg.Manager.Config().PrefetchExtentPages
	reportAt := interval

	// report sends one progress sample; false means the scan must stop.
	report := func() bool {
		hook(SiteReport)
		adv, err := cfg.Manager.ReportProgress(id, processed, cfg.Env.Now())
		hook(SiteReported)
		if err != nil {
			res.Err = err
			return false
		}
		if adv.Wait > 0 {
			if err := cfg.Manager.SettleThrottle(id, adv.Wait, 0); err != nil {
				res.Err = err
				return false
			}
		}
		if cfg.OnAdvice != nil {
			cfg.OnAdvice(idx, processed, adv)
		}
		next := adv.NextReportPages
		if next <= 0 {
			next = interval
		}
		reportAt = processed + next
		return true
	}
	// accept processes one footprint position: coverage, checksum, the
	// consumer callback, and the progress cadence. false stops the scan.
	// preCounted marks self-pulled pages, whose hit/miss accounting was
	// already done by fetchPage.
	accept := func(pageNo int, data []byte, preCounted bool) bool {
		if covered[pageNo-spec.StartPage] {
			if res.Err == nil {
				res.Err = fmt.Errorf("realtime: page %d delivered twice to scan %d", pageNo, idx)
			}
			return false
		}
		covered[pageNo-spec.StartPage] = true
		processed++
		if data == nil {
			res.DegradedPages++
			// Mirror pull-mode accounting: a degraded page cost the scan
			// one miss attempt there, so charge the subscriber the same
			// (fetchPage already did for self-pulled pages).
			if !preCounted {
				cfg.Collector.PageMiss()
				res.Misses++
			}
		} else {
			if len(data) > 0 {
				res.Checksum += uint64(data[0]) + uint64(data[len(data)-1])<<8
			}
			if spec.OnPage != nil {
				spec.OnPage(pageNo, data)
			}
			if !preCounted {
				cfg.Collector.PageHit()
				res.Hits++
			}
			res.PagesRead++
			cfg.Env.Sleep(ctx, spec.PageDelay)
		}
		if processed >= limit && limit < length {
			res.Stopped = true
			return false
		}
		if processed >= reportAt || processed == length {
			if !report() {
				return false
			}
		}
		return true
	}
	// selfPull finishes the footprint through the pull-mode fetch path
	// after a demotion: every uncovered page is fetched, accounted, and
	// traced like a delivered one, preserving exactly-once coverage.
	selfPull := func() {
		var deg fetchState
		for i := range covered {
			if covered[i] {
				continue
			}
			if ctx.Err() != nil {
				res.Stopped = true
				return
			}
			pageNo := spec.StartPage + i
			pid := spec.PageID(pageNo)
			data, out := r.fetchPage(ctx, id, sc, pid, hook, res, &deg)
			if out == fetchStop {
				return
			}
			cfg.Tracer.Emit(trace.Event{
				Kind: trace.KindBatchPush, Scan: int64(id), Table: int64(spec.Table),
				Page: int64(pageNo), Gap: 1, Peer: trace.NoID, Prio: -1,
			})
			res.PushSelfPulled++
			var ok bool
			if out == fetchOK {
				ok = accept(pageNo, data, true)
				r.releasePage(pid, core.PageNormal, res)
				if res.Err != nil {
					return
				}
			} else if out == fetchOKOpt {
				ok = accept(pageNo, data, true)
			} else { // fetchSkip: fetchPage already counted DegradedPages
				res.DegradedPages--
				ok = accept(pageNo, nil, true)
			}
			if !ok {
				return
			}
		}
	}

	for {
		recvStart := cfg.Env.Now()
		select {
		case <-ctx.Done():
			res.Stopped = true
			return
		case b, ok := <-sub.ch:
			// Time blocked on the channel is push-mode delivery wait — the
			// consumer-side view of reader backpressure and read latency.
			recvWait := cfg.Env.Now() - recvStart
			res.DeliveryWait += recvWait
			if ok {
				cfg.Tracer.EmitSpan(sc, trace.SpanDelivery, int64(id), int64(spec.Table), recvWait)
			}
			if !ok {
				// Buffered batches are always drained before the close is
				// observed, so the stream accounting is settled here.
				res.Detaches += sub.detaches
				res.Rejoins += sub.rejoins
				res.ReadRetries += sub.retries
				res.ReadTimeouts += sub.timeouts
				res.ReadWait += sub.readWait
				res.PoolWait += sub.poolWait
				switch sub.reason {
				case subDone:
					if processed != length && res.Err == nil && !res.Stopped {
						res.Err = fmt.Errorf("realtime: push stream closed with %d/%d pages delivered to scan %d",
							processed, length, idx)
					}
				case subDemoted:
					res.PushDemoted = true
					goneOnce()
					selfPull()
				case subFailed:
					if res.Err == nil {
						res.Err = sub.err
					}
				case subCancelled:
					res.Stopped = true
				}
				return
			}
			lo, hi := max(b.start, spec.StartPage), min(b.start+len(b.pages), end)
			if hi <= lo {
				continue
			}
			cfg.Tracer.Emit(trace.Event{
				Kind: trace.KindBatchPush, Scan: int64(id), Table: int64(spec.Table),
				Page: int64(lo), Gap: int64(hi - lo), Peer: trace.NoID, Prio: -1,
			})
			res.PushBatches++
			cfg.Collector.BatchPushed()
			for p := lo; p < hi; p++ {
				if !accept(p, b.pages[p-b.start], false) {
					return
				}
			}
		}
	}
}
