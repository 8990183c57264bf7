package buffer

import "fmt"

// Replacement policy names, accepted by NewPoolPolicy and the engine-level
// Config.PoolPolicy / scanshare-bench -pool-policy plumbing.
const (
	// PolicyLRU is the paper's priority-LRU replacement: the victim is the
	// least recently released unpinned frame of the lowest occupied
	// priority level. It is the default and the only policy with a fully
	// deterministic operation order, which the replay harness depends on.
	PolicyLRU = "priority-lru"
	// PolicyPredictive is predictive buffer management (arXiv 1208.4170,
	// "From Cooperative Scans to Predictive Buffer Management"): the pool
	// reads every live scan's position and speed from its ScanSource, each
	// frame gets a time-to-next-use estimate, and the victim is the frame
	// with the largest estimated reuse distance. With no source or no live
	// scans it degenerates to plain LRU on release order.
	PolicyPredictive = "predictive"
)

// Policies returns the known replacement policy names, default first.
func Policies() []string { return []string{PolicyLRU, PolicyPredictive} }

// NormalizePolicy maps a policy name to its canonical form ("" means the
// default priority-LRU) or reports an error naming the valid choices.
func NormalizePolicy(name string) (string, error) {
	switch name {
	case "", PolicyLRU:
		return PolicyLRU, nil
	case PolicyPredictive:
		return PolicyPredictive, nil
	}
	return "", fmt.Errorf("buffer: unknown replacement policy %q (valid: %q, %q)", name, PolicyLRU, PolicyPredictive)
}

// replacementPolicy is the per-shard eviction strategy. Every method is
// called with the owning shard's mutex held, so implementations need no
// locking of their own for frame bookkeeping (the predictive policy's scan
// source, shared across shards, synchronizes itself).
//
// The shard keeps ownership of the frame table, pin counts, stats, and trace
// emission; the policy only orders the unpinned frames and picks victims.
// A frame is handed to the policy by insert when its pin count reaches zero
// (with frame.prio already set to the release priority) and taken back by
// remove when it is re-pinned. victim must detach and return an unpinned
// frame, or nil when it holds none.
type replacementPolicy interface {
	// insert links f, just unpinned, into one of the policy's frameLists;
	// the shard tells a policy-held frame by its links (frame.listed).
	insert(f *frame)
	// remove unlinks f, about to be re-pinned.
	remove(f *frame)
	// victim picks, unlinks, and returns the frame to evict, or nil when
	// no unpinned frame exists. The returned frame's prio field is the
	// priority it was last released at, which the shard uses for the
	// per-priority eviction counters.
	victim() *frame
	// check panics if the policy's view of shard s (index idx) is
	// inconsistent: every list must be well linked, and every held frame
	// must be valid, unpinned and present in the shard's frame table. Used
	// by CheckInvariants.
	check(s *shard, idx int)
}

// newPolicy builds the per-shard policy state for a canonical policy name.
func newPolicy(policy string) replacementPolicy {
	switch policy {
	case PolicyPredictive:
		p := &predictivePolicy{}
		p.order.init()
		return p
	default:
		return newLRUPolicy()
	}
}

// frameList is an intrusive FIFO threaded through frame.prev/frame.next: a
// circular doubly linked list around a sentinel, the shape of container/list
// without the element it allocates per push. The front is the frame pushed
// least recently. A frame is on at most one list at a time, and its links
// are nil while it is on none.
type frameList struct {
	root frame // sentinel: root.next is the front, root.prev the back
	n    int
}

func (l *frameList) init() {
	l.root.next = &l.root
	l.root.prev = &l.root
}

// front returns the least recently pushed frame; on an empty list that is
// end(), so a front-to-back walk is `for f := l.front(); f != l.end(); ...`.
func (l *frameList) front() *frame { return l.root.next }

// end is the sentinel a front-to-back walk stops at.
func (l *frameList) end() *frame { return &l.root }

func (l *frameList) pushBack(f *frame) {
	at := l.root.prev
	f.prev, f.next = at, &l.root
	at.next = f
	l.root.prev = f
	l.n++
}

func (l *frameList) remove(f *frame) {
	f.prev.next = f.next
	f.next.prev = f.prev
	f.prev, f.next = nil, nil
	l.n--
}

// moveToBack makes f, already on l, the most recently pushed frame.
func (l *frameList) moveToBack(f *frame) {
	if l.root.prev == f {
		return
	}
	l.remove(f)
	l.pushBack(f)
}

// check panics unless every link on l is mirrored by its neighbour's and
// the walk from the front meets the sentinel after exactly n frames.
func (l *frameList) check(name string) {
	n := 0
	for f := &l.root; ; f = f.next {
		if f.next == nil || f.next.prev != f {
			panicf("buffer: %s: asymmetric links after frame %d", name, n)
		}
		if f.next == &l.root {
			break
		}
		if n++; n > l.n {
			panicf("buffer: %s: more frames linked than its count %d", name, l.n)
		}
	}
	if n != l.n {
		panicf("buffer: %s: %d frames linked, count %d", name, n, l.n)
	}
}

// checkHeld panics unless f may be held by a shard's policy: resident in the
// shard's frame table, valid, and unpinned.
func checkHeld(s *shard, f *frame, list string) {
	if f.pins != 0 {
		panicf("buffer: pinned page %d on %s", f.pid, list)
	}
	if f.state != frameValid {
		panicf("buffer: page %d in state %d on %s", f.pid, f.state, list)
	}
	if s.lookupLocked(f.pid) != f {
		panicf("buffer: page %d on %s but not in frame table", f.pid, list)
	}
}

// lruPolicy is the classic priority-LRU replacement extracted from the
// original pool: one FIFO list per priority level, least recently released
// at the front, victim taken from the front of the lowest occupied level.
// The operation order is identical to the pre-refactor inline code, so a
// single-shard pool under this policy stays bit-identical for the golden
// replay tests.
type lruPolicy struct {
	// levels[p] holds unpinned frames released at priority p, least
	// recently released at the front (the eviction end).
	levels [numPriorities]frameList
}

func newLRUPolicy() *lruPolicy {
	p := &lruPolicy{}
	for i := range p.levels {
		p.levels[i].init()
	}
	return p
}

func (p *lruPolicy) insert(f *frame) {
	p.levels[f.prio].pushBack(f)
}

func (p *lruPolicy) remove(f *frame) {
	p.levels[f.prio].remove(f)
}

func (p *lruPolicy) victim() *frame {
	for prio := PriorityEvict; prio < numPriorities; prio++ {
		lvl := &p.levels[prio]
		if lvl.n == 0 {
			continue
		}
		// Second-chance walk: a frame whose touched bit was set by a
		// validated optimistic read (array translation only; see
		// ReadOptimistic) gets one reprieve — bit cleared, moved to the back
		// of its level — before it can be victimized. The walk is bounded by
		// the level's length, so when every frame was touched the pass
		// degrades to clearing all bits and evicting the original front:
		// exactly CLOCK on top of the paper's priority-LRU. Under map
		// translation no bit is ever set and this is the classic front-pop.
		for n := lvl.n; n > 0; n-- {
			f := lvl.front()
			if f.touched.CompareAndSwap(true, false) {
				lvl.moveToBack(f)
				continue
			}
			lvl.remove(f)
			return f
		}
		f := lvl.front()
		lvl.remove(f)
		return f
	}
	return nil
}

func (p *lruPolicy) check(s *shard, idx int) {
	for i := range p.levels {
		lvl := &p.levels[i]
		name := fmt.Sprintf("shard %d level %v list", idx, Priority(i))
		lvl.check(name)
		for f := lvl.front(); f != lvl.end(); f = f.next {
			checkHeld(s, f, name)
			if f.prio != Priority(i) {
				panicf("buffer: page %d on level %d but prio %d", f.pid, i, f.prio)
			}
		}
	}
}
