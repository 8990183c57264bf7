package core

import (
	"cmp"
	"slices"
)

// group is a maximal run of scans on the same table that are close enough to
// share buffer pages. Members are consecutive in circular page order;
// trailer is the back of the run, leader the front, and extent the forward
// distance from trailer to leader in pages.
type group struct {
	table   TableID
	members []ScanID // in circular order, trailer first
	trailer ScanID
	leader  ScanID
	extent  int
}

// scanPair is a candidate merge between two scans adjacent in circular page
// order on the same table.
type scanPair struct {
	behind, ahead ScanID
	dist          int // forward pages from behind to ahead
}

// regroupScratch is regroupLocked's working storage. It lives on the Manager
// and is cleared, not reallocated, between runs: a progress report is the
// manager's hot path, and a steady-state report must not allocate.
type regroupScratch struct {
	byTable   map[TableID][]*scanState
	pairs     []scanPair
	parent    map[ScanID]ScanID
	next      map[ScanID]ScanID // behind -> ahead links inside runs
	hasBehind map[ScanID]bool
	trailers  []ScanID
	// spare is the group list of the regroup before last. Its group objects
	// (and their member slices) are recycled; the previous run's list stays
	// intact while the new one is built, because group-change events are
	// derived by diffing the two.
	spare []*group
}

func newRegroupScratch() regroupScratch {
	return regroupScratch{
		byTable:   make(map[TableID][]*scanState),
		parent:    make(map[ScanID]ScanID),
		next:      make(map[ScanID]ScanID),
		hasBehind: make(map[ScanID]bool),
	}
}

// find is union-find root lookup with path halving over rg.parent.
func (rg *regroupScratch) find(x ScanID) ScanID {
	for rg.parent[x] != x {
		rg.parent[x] = rg.parent[rg.parent[x]]
		x = rg.parent[x]
	}
	return x
}

// newGroupLocked appends an empty group to m.groups, recycling the group
// object left in that slot by an earlier regroup when there is one.
func (m *Manager) newGroupLocked(table TableID, trailer ScanID) *group {
	n := len(m.groups)
	var g *group
	if n < cap(m.groups) {
		m.groups = m.groups[:n+1]
		g = m.groups[n]
	} else {
		m.groups = append(m.groups, nil)
	}
	if g == nil {
		g = new(group)
		m.groups[n] = g
	}
	*g = group{table: table, trailer: trailer, members: g.members[:0]}
	return g
}

// regroupLocked recomputes scan groups using the paper's greedy algorithm:
// consider adjacent same-table scan pairs sorted by distance, and merge them
// in increasing order into runs until the sum of all group extents would
// exceed the buffer-pool page budget.
func (m *Manager) regroupLocked() {
	if !m.dirty {
		return
	}
	m.dirty = false
	rg := &m.rg
	// Group-change events are derived by diffing the new grouping against
	// the old one, so the old list is kept as it is and the new one is built
	// in the list before it.
	prev := m.groups
	m.groups, rg.spare = rg.spare[:0], prev

	// Collect candidate pairs per table. Detached scans are invisible
	// here: a group must never chain itself to a scan whose reads are
	// failing, and a detached scan must not be picked as anyone's leader
	// or trailer.
	for t, scans := range rg.byTable {
		if len(scans) == 0 {
			delete(rg.byTable, t) // no attached scan last time either
			continue
		}
		rg.byTable[t] = scans[:0]
	}
	clear(rg.parent)
	for id, s := range m.scans {
		if s.detached {
			continue
		}
		rg.byTable[s.table] = append(rg.byTable[s.table], s)
		rg.parent[id] = id
	}

	pairs := rg.pairs[:0]
	for _, scans := range rg.byTable {
		if len(scans) < 2 {
			continue
		}
		// Order scans by circular position; ties by ID for determinism.
		slices.SortFunc(scans, func(a, b *scanState) int {
			if c := cmp.Compare(a.pos(), b.pos()); c != 0 {
				return c
			}
			return cmp.Compare(a.id, b.id)
		})
		n := len(scans)
		for i := 0; i < n; i++ {
			behind, ahead := scans[i], scans[(i+1)%n]
			if i == n-1 && n == 2 {
				// With two scans both orientations exist; keep
				// only the shorter pair added in the first
				// iteration.
				continue
			}
			d := ahead.pos() - behind.pos()
			if d < 0 || (i == n-1) {
				d = behind.tablePages - behind.pos() + ahead.pos()
			}
			pairs = append(pairs, scanPair{behind: behind.id, ahead: ahead.id, dist: d})
		}
		if n == 2 {
			// Choose the orientation with the smaller forward gap.
			a, b := scans[0], scans[1]
			forward := b.pos() - a.pos()
			backward := a.tablePages - forward
			if backward < forward {
				pairs[len(pairs)-1] = scanPair{behind: b.id, ahead: a.id, dist: backward}
			}
		}
	}

	slices.SortFunc(pairs, func(a, b scanPair) int {
		if c := cmp.Compare(a.dist, b.dist); c != 0 {
			return c
		}
		if c := cmp.Compare(a.behind, b.behind); c != 0 {
			return c
		}
		return cmp.Compare(a.ahead, b.ahead)
	})
	rg.pairs = pairs

	// Greedy merge with a global extent budget (the buffer-pool size).
	next, hasBehind := rg.next, rg.hasBehind
	clear(next)
	clear(hasBehind)
	budget := m.cfg.BufferPoolPages
	total := 0
	for _, p := range pairs {
		if total+p.dist > budget {
			// Distances are sorted ascending: once one pair does
			// not fit, none of the rest will either.
			break
		}
		rb, ra := rg.find(p.behind), rg.find(p.ahead)
		if rb == ra {
			continue // would close a full circle
		}
		if _, taken := next[p.behind]; taken {
			continue // p.behind already has a scan directly ahead
		}
		if hasBehind[p.ahead] {
			continue // p.ahead already has a scan directly behind
		}
		rg.parent[rb] = ra
		next[p.behind] = p.ahead
		hasBehind[p.ahead] = true
		total += p.dist
	}

	// Materialize runs: a trailer is a scan that is nobody's "ahead".
	trailers := rg.trailers[:0]
	for id := range next {
		if !hasBehind[id] {
			trailers = append(trailers, id)
		}
	}
	slices.Sort(trailers)
	rg.trailers = trailers

	for _, trailer := range trailers {
		g := m.newGroupLocked(m.scans[trailer].table, trailer)
		for id := trailer; ; {
			g.members = append(g.members, id)
			ahead, ok := next[id]
			if !ok {
				g.leader = id
				break
			}
			prev, cur := m.scans[id], m.scans[ahead]
			d := cur.pos() - prev.pos()
			if d < 0 {
				d += prev.tablePages
			}
			g.extent += d
			id = ahead
		}
	}

	if m.cfg.OnEvent != nil {
		m.emitGroupDeltasLocked(prev)
	}
}

// emitGroupDeltasLocked compares the freshly computed grouping against the
// previous one and emits formed/merged/split/handoff events. Steady-state
// regroups (same composition) emit nothing, so the event stream records only
// actual transitions. Called with the state lock held, right after
// regroupLocked materializes m.groups; events are timestamped with the
// manager's most recent caller-supplied time.
func (m *Manager) emitGroupDeltasLocked(prev []*group) {
	now := m.lastNow

	prevOf := make(map[ScanID]int, len(m.scans))
	for i, g := range prev {
		for _, id := range g.members {
			prevOf[id] = i
		}
	}
	newOf := make(map[ScanID]int, len(m.scans))
	for i, g := range m.groups {
		for _, id := range g.members {
			newOf[id] = i
		}
	}

	// Splits first: a previous group whose surviving members (scans still
	// registered and attached) no longer all share one new group has come
	// apart. A group that merely dissolved because its scans finished or
	// detached is not a split.
	for _, g := range prev {
		var survivors []ScanID
		for _, id := range g.members {
			if s, ok := m.scans[id]; ok && !s.detached {
				survivors = append(survivors, id)
			}
		}
		if len(survivors) < 2 {
			continue
		}
		first, ok := newOf[survivors[0]]
		together := ok
		for _, id := range survivors[1:] {
			if idx, ok := newOf[id]; !ok || idx != first {
				together = false
				break
			}
		}
		if !together {
			m.emit(Event{
				Kind: EventGroupSplit, Time: now, Table: g.table,
				Scan: g.leader, Peer: g.trailer,
				Members: append([]ScanID(nil), g.members...),
			})
		}
	}

	// Then classify each new group by where its members came from.
	for _, g := range m.groups {
		sources := make(map[int]bool)
		fresh := false // has a member that was ungrouped before
		for _, id := range g.members {
			if i, ok := prevOf[id]; ok {
				sources[i] = true
			} else {
				fresh = true
			}
		}
		ev := Event{
			Time: now, Table: g.table,
			Scan: g.leader, Peer: g.trailer, GapPages: g.extent,
			Members: append([]ScanID(nil), g.members...),
		}
		switch {
		case len(sources) == 0:
			ev.Kind = EventGroupFormed
			m.emit(ev)
		case len(sources) >= 2 || fresh:
			ev.Kind = EventGroupMerged
			m.emit(ev)
		default:
			// Continuation of exactly one previous group: report role
			// changes at its front and back.
			old := prev[firstKey(sources)]
			if old.leader != g.leader {
				m.emit(Event{Kind: EventLeaderHandoff, Time: now, Table: g.table,
					Scan: g.leader, Peer: old.leader})
			}
			if old.trailer != g.trailer {
				m.emit(Event{Kind: EventTrailerHandoff, Time: now, Table: g.table,
					Scan: g.trailer, Peer: old.trailer})
			}
		}
	}
}

// firstKey returns the single key of a one-element set.
func firstKey(set map[int]bool) int {
	for k := range set {
		return k
	}
	return -1
}
