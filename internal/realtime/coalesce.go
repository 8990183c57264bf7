package realtime

import (
	"sync"

	"scanshare/internal/disk"
)

// flightTable is the singleflight registry for physical page reads. A caller
// that wins a pool Miss registers its read here before touching the store;
// any other scan that then misses on the same page (the pool reports Busy
// while the frame is pending) joins the flight and blocks on its done
// channel instead of sleep-polling. When the read completes — Fill or Abort,
// success or failure — the leader publishes the outcome and closes the
// channel, waking every waiter at once.
//
// The pool already guarantees at most one pending read per page (the pending
// frame), so at most one live flight exists per page id; the table just
// makes that read's completion observable. All methods are safe on a nil
// *flightTable, which is how the runner spells "coalescing disabled".
//
// Coalescing waiters block on channels, not at Hook sites, so this layer is
// incompatible with the deterministic Sched harness (which requires every
// live worker to park at a hook); Config.CoalesceReads is therefore opt-in
// and off in all replay-based tests. See CONCURRENCY.md.
type flightTable struct {
	mu sync.Mutex
	m  map[disk.PageID]*flight
	// free holds finished flights that nobody joined, for begin to reuse:
	// once finish has removed such a flight from m, its leader held the
	// only reference and is done with it. Guarded by mu.
	free []*flight
}

// flight is one in-flight physical read. Most reads finish with nobody
// waiting, so done is made by the first waiter (join, under the table lock)
// and a flight that was never joined has none to close — finish recycles it
// instead, so a miss nobody else wanted allocates nothing. A joined flight
// is never reused: its waiters read err after the close, whenever they
// wake. err is written exactly once, before done is closed; the channel
// close is the happens-before edge that lets waiters read it without the
// table lock. fallback marks a best-effort (prefetch) read: its failure
// tells waiters to re-acquire and read the page themselves under their own
// retry policy, rather than inheriting an error from a reader that never
// retries.
type flight struct {
	done     chan struct{}
	err      error
	fallback bool
}

func newFlightTable() *flightTable {
	return &flightTable{m: make(map[disk.PageID]*flight)}
}

// begin registers a flight for pid, reusing a recycled one when it can, and
// returns it. Returns nil on a nil table (coalescing disabled).
func (t *flightTable) begin(pid disk.PageID, fallback bool) *flight {
	if t == nil {
		return nil
	}
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

// join registers the caller as a waiter on pid's live flight, if there is
// one, and returns it together with the channel its finish will close.
func (t *flightTable) join(pid disk.PageID) (*flight, <-chan struct{}, bool) {
	if t == nil {
		return nil, nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	fl, ok := t.m[pid]
	if !ok {
		return nil, nil, false
	}
	if fl.done == nil {
		fl.done = make(chan struct{})
	}
	return fl, fl.done, true
}

// finish publishes the read's outcome and wakes all waiters. The leader must
// settle the pool frame first (Fill on success, Abort on failure) so a woken
// waiter's re-Acquire observes the final state: Hit after a fill, Miss after
// an abort. The delete is pointer-guarded so a finish racing a newer flight
// for the same page never removes the newer entry; once the entry is gone no
// waiter can join, so the done channel read under the lock is final — and a
// flight without one goes back on the freelist. The leader must not touch fl
// after finish. No-op when t or fl is nil.
func (t *flightTable) finish(pid disk.PageID, fl *flight, err error) {
	if t == nil || fl == nil {
		return
	}
	fl.err = err
	t.mu.Lock()
	if t.m[pid] == fl {
		delete(t.m, pid)
	}
	done := fl.done
	if done == nil {
		*fl = flight{}
		t.free = append(t.free, fl)
	}
	t.mu.Unlock()
	if done != nil {
		close(done)
	}
}
