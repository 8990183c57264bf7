package realtime

import (
	"context"
	"sync"

	"scanshare/internal/disk"
)

// flightTable is the singleflight registry for physical page reads. A caller
// that wins a pool Miss registers its read here before touching the store;
// any other scan that then misses on the same page (the pool reports Busy
// while the frame is pending) joins the flight and parks instead of
// sleep-polling. When the read completes — Fill or Abort, success or failure
// — the leader hands the outcome to every waiter and wakes them.
//
// The pool already guarantees at most one pending read per page (the pending
// frame), so at most one live flight exists per page id; the table just
// makes that read's completion observable. Waiters park through the
// runner's Env like every other wait.
type flightTable struct {
	mu sync.Mutex
	m  map[disk.PageID]*flight
	// free holds finished flights for begin to reuse: once finish has
	// removed a flight from m and handed its outcome to its waiters, its
	// leader held the only reference and is done with it. Guarded by mu.
	free []*flight
}

// flight is one in-flight physical read: the waiters that joined it, and
// whether it is a best-effort (prefetch) read, whose failure tells waiters
// to re-acquire and read the page themselves under their own retry policy
// rather than inherit an error from a reader that never retries. Guarded by
// the table's mu.
type flight struct {
	waiters  *flightWaiter
	fallback bool
}

// flightWaiter is one worker's place on a flight's wait list, made at its
// first coalesced wait and reused for every later one. Every field but wake
// is guarded by the table's mu.
type flightWaiter struct {
	wake chan struct{} // finish's token, room for one
	next *flightWaiter
	// fl is the flight waited on, nil once finish handed over its outcome
	// (err, fallback) or the waiter left.
	fl       *flight
	err      error
	fallback bool
}

func newFlightTable() *flightTable {
	return &flightTable{m: make(map[disk.PageID]*flight)}
}

// begin registers a flight for pid, reusing a recycled one when it can, and
// returns it.
func (t *flightTable) begin(pid disk.PageID, fallback bool) *flight {
	t.mu.Lock()
	var fl *flight
	if n := len(t.free) - 1; n >= 0 {
		fl = t.free[n]
		t.free[n] = nil
		t.free = t.free[:n]
	} else {
		fl = new(flight)
	}
	fl.fallback = fallback
	t.m[pid] = fl
	t.mu.Unlock()
	return fl
}

// join puts the worker's waiter *wp on pid's live flight, if there is one,
// making the waiter at the worker's first join.
func (t *flightTable) join(pid disk.PageID, wp **flightWaiter) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	fl, ok := t.m[pid]
	if !ok {
		return false
	}
	if *wp == nil {
		*wp = &flightWaiter{wake: make(chan struct{}, 1)}
	}
	w := *wp
	w.fl, w.err, w.fallback = fl, nil, false
	w.next, fl.waiters = fl.waiters, w
	return true
}

// wait parks w's worker on env until the flight it joined finishes, and
// reports true with the outcome in w.err and w.fallback. If ctx ends first
// it takes w off the flight and reports false.
func (t *flightTable) wait(ctx context.Context, env Env, w *flightWaiter) bool {
	for {
		env.Park(ctx, w.wake, 0) // a stale token from an earlier wait parks again
		t.mu.Lock()
		fl := w.fl
		left := fl != nil && ctx.Err() != nil
		if left {
			for p := &fl.waiters; *p != nil; p = &(*p).next {
				if *p == w {
					*p = w.next
					break
				}
			}
			w.fl, w.next = nil, nil
		}
		t.mu.Unlock()
		if fl == nil || left {
			return fl == nil
		}
	}
}

// finish hands the read's outcome to every waiter, wakes them, and recycles
// the flight. The leader must settle the pool frame first (Fill on success,
// Abort on failure) so a woken waiter's re-Acquire observes the final state:
// Hit after a fill, Miss after an abort. The delete is pointer-guarded so a
// finish racing a newer flight for the same page never removes the newer
// entry. The leader must not touch fl after finish.
func (t *flightTable) finish(pid disk.PageID, fl *flight, err error) {
	t.mu.Lock()
	if t.m[pid] == fl {
		delete(t.m, pid)
	}
	for w := fl.waiters; w != nil; {
		next := w.next
		w.next, w.fl, w.err, w.fallback = nil, nil, err, fl.fallback
		signal(w.wake)
		w = next
	}
	*fl = flight{}
	t.free = append(t.free, fl)
	t.mu.Unlock()
}
