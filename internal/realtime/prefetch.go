package realtime

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"scanshare/internal/buffer"
	"scanshare/internal/disk"
	"scanshare/internal/metrics"
)

// maxFailedPages bounds the prefetcher's failed-page memory; past it the set
// is reset wholesale (coarse, but the set only exists to stop the pipeline
// from hammering known-bad pages back to back).
const maxFailedPages = 1 << 14

// prefetcher is the bounded worker-pool read-ahead pipeline. Scan workers
// enqueue their next prefetch extent; workers drain the queue and stage
// missing pages in the pool so the scans hit instead of stalling on the
// store.
//
// Workers park through the runner's Env while the queue is empty, so the
// pipeline runs unchanged in the virtual-time replay environment. Three
// properties keep it from fighting the scans it serves:
//
//   - Best-effort admission: enqueue never blocks. When the queue is full
//     the extent is dropped (and counted) — the scan will simply read those
//     pages itself, as it would without a prefetcher.
//   - Coalescing: pages already being fetched by another worker are skipped
//     via the in-flight set, so the members of a scan group — who request
//     largely identical extents — share one read-ahead stream instead of
//     issuing duplicate store reads.
//   - Failure dedup: a page whose read failed is remembered and skipped on
//     later extents, so one bad page cannot occupy the pipeline every time
//     a group member's extent covers it. The scans still read it themselves,
//     with retries — only the best-effort pipeline gives up. The read
//     function is timeout-bounded by the Runner, so a stalling page delays
//     one worker for at most one ReadTimeout instead of wedging it.
type prefetcher struct {
	pool    *buffer.Pool
	read    func(pid disk.PageID) ([]byte, error)
	col     *metrics.Collector
	env     Env
	flights *flightTable // the runner's; prefetch flights are best-effort

	// reqs queues at most 2×workers extents; nobody blocks on it. wake
	// holds a token while a request, or the close, may be waiting for a
	// parked worker; a worker that takes a request and leaves more behind
	// passes the token on. scans counts the scans still running; the
	// pipeline closes when it reaches zero.
	reqs  chan prefetchReq
	wake  chan struct{}
	scans atomic.Int64

	mu       sync.Mutex
	inflight map[disk.PageID]struct{}
	failed   map[disk.PageID]struct{}
}

// prefetchReq is one queued extent plus its enqueue time, so the pickup
// delay — how long the request sat behind others in the bounded queue — can
// be observed into the collector's queue-delay histogram. The extent is the
// scan-order indices [from, to) of the requesting scan, whose page mapping
// pageAt turns them into device pages: a request names its pages without a
// slice of its own.
type prefetchReq struct {
	pageAt   func(i int) disk.PageID
	from, to int
	at       time.Duration
}

// newPrefetcher returns a pipeline for workers workers serving scans scans,
// which the Runner runs in its environment. read performs one page read;
// the Runner passes its timeout-bounded store read.
func newPrefetcher(pool *buffer.Pool, read func(pid disk.PageID) ([]byte, error), col *metrics.Collector, env Env, workers, scans int, flights *flightTable) *prefetcher {
	p := &prefetcher{
		pool:     pool,
		read:     read,
		col:      col,
		env:      env,
		flights:  flights,
		reqs:     make(chan prefetchReq, 2*workers),
		wake:     make(chan struct{}, 1),
		inflight: make(map[disk.PageID]struct{}),
		failed:   make(map[disk.PageID]struct{}),
	}
	p.scans.Store(int64(scans))
	return p
}

// enqueue offers the extent of scan-order indices [from, to) to the
// pipeline without blocking; pageAt maps an index to its device page.
func (p *prefetcher) enqueue(pageAt func(i int) disk.PageID, from, to int) {
	if from >= to {
		return
	}
	select {
	case p.reqs <- prefetchReq{pageAt: pageAt, from: from, to: to, at: p.env.Now()}:
		signal(p.wake)
		p.col.Add(metrics.PrefetchEnqueued, 1)
	default:
		p.col.Add(metrics.PrefetchDropped, 1)
	}
}

// scanDone records that a scan has finished; after the last one the workers
// return once the queue is drained.
func (p *prefetcher) scanDone() {
	if p.scans.Add(-1) == 0 {
		signal(p.wake)
	}
}

// worker serves queued extents until the pipeline is closed and drained.
func (p *prefetcher) worker() {
	for {
		var req prefetchReq
		select {
		case req = <-p.reqs:
		default:
			if p.scans.Load() == 0 && len(p.reqs) == 0 {
				signal(p.wake) // the next idle worker returns too
				return
			}
			p.env.Park(context.Background(), p.wake, 0)
			continue
		}
		if len(p.reqs) > 0 {
			signal(p.wake)
		}
		p.col.Add(metrics.PrefetchPicked, 1)
		p.col.PrefetchDelayed(p.env.Now() - req.at)
		for i := req.from; i < req.to; i++ {
			p.fetch(req.pageAt(i))
		}
	}
}

// fetch stages one page in the pool. Failures are recorded and the page is
// skipped thereafter: a prefetch that cannot complete leaves the work — and
// the retry policy — to the scan.
func (p *prefetcher) fetch(pid disk.PageID) {
	p.mu.Lock()
	if _, bad := p.failed[pid]; bad {
		p.mu.Unlock()
		return
	}
	if _, busy := p.inflight[pid]; busy {
		p.mu.Unlock()
		return
	}
	p.inflight[pid] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.inflight, pid)
		p.mu.Unlock()
	}()

	switch st, _ := p.pool.Acquire(pid); st {
	case buffer.Hit:
		// Already resident: unpin without disturbing the priority the
		// owning scan released it at.
		p.pool.ReleaseRetain(pid)
	case buffer.Miss:
		fl := p.flights.begin(pid, true)
		data, err := p.read(pid)
		if err != nil {
			p.pool.Abort(pid)
			p.flights.finish(pid, fl, err)
			p.markFailed(pid)
			return
		}
		ferr := p.pool.Fill(pid, data)
		p.flights.finish(pid, fl, ferr)
		if ferr != nil {
			return
		}
		// Normal priority: the scan that asked for the extent is about
		// to re-acquire the page and release it at the advised level.
		p.pool.Release(pid, buffer.PriorityNormal)
		p.col.Add(metrics.PrefetchFilled, 1)
	case buffer.Busy:
		// Someone is reading it right now; nothing left to stage.
	case buffer.AllPinned:
		// Pool saturated with pinned frames; prefetching ahead of the
		// scans cannot help until they release, so skip the page.
	}
}

// markFailed records a failed page for the dedup set.
func (p *prefetcher) markFailed(pid disk.PageID) {
	p.mu.Lock()
	if len(p.failed) >= maxFailedPages {
		p.failed = make(map[disk.PageID]struct{})
	}
	p.failed[pid] = struct{}{}
	p.mu.Unlock()
	p.col.Add(metrics.PrefetchFailed, 1)
}
