package buffer

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"scanshare/internal/disk"
)

// modelFrame is one page's state in the reference model.
type modelFrame struct {
	pins    int
	prio    Priority
	pending bool
}

// modelEntry is one unpinned page in a model policy's order, with the
// priority it was released at (needed for the per-priority eviction
// counters).
type modelEntry struct {
	pid  disk.PageID
	prio Priority
}

// modelPolicy is the reference-side mirror of replacementPolicy: it orders a
// shard's unpinned pages and picks victims. One implementation per pool
// policy, each written against the documented semantics rather than the
// implementation.
type modelPolicy interface {
	insert(pid disk.PageID, prio Priority)
	remove(pid disk.PageID, prio Priority)
	victim() (disk.PageID, Priority, bool)
}

// modelLRU is the paper's priority-LRU: per-priority FIFOs, victim from the
// front of the lowest occupied level, with the optimistic read path's CLOCK
// second chance — a touched page at the front is skipped once (bit cleared,
// moved to the back) before it can be victimized. touched is the shard's
// per-page view of the frame bit; under map translation it stays empty and
// the walk is the classic front-pop.
type modelLRU struct {
	levels  [numPriorities][]modelEntry
	touched map[disk.PageID]bool
}

func (m *modelLRU) insert(pid disk.PageID, prio Priority) {
	m.levels[prio] = append(m.levels[prio], modelEntry{pid, prio})
}

func (m *modelLRU) remove(pid disk.PageID, prio Priority) {
	lvl := m.levels[prio]
	for i, e := range lvl {
		if e.pid == pid {
			m.levels[prio] = append(lvl[:i], lvl[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("model: page %d not on level %d", pid, prio))
}

func (m *modelLRU) victim() (disk.PageID, Priority, bool) {
	for prio := PriorityEvict; prio < numPriorities; prio++ {
		if len(m.levels[prio]) == 0 {
			continue
		}
		// Bounded second-chance walk, mirroring lruPolicy.victim: each
		// touched front entry is cleared and rotated to the back once; if
		// the whole level was touched, the original front (now cleared)
		// is evicted anyway.
		for n := len(m.levels[prio]); n > 0; n-- {
			e := m.levels[prio][0]
			if m.touched[e.pid] {
				delete(m.touched, e.pid)
				m.levels[prio] = append(m.levels[prio][1:], e)
				continue
			}
			m.levels[prio] = m.levels[prio][1:]
			return e.pid, e.prio, true
		}
		e := m.levels[prio][0]
		m.levels[prio] = m.levels[prio][1:]
		return e.pid, e.prio, true
	}
	return disk.InvalidPage, 0, false
}

// modelScan is one registered scan in the reference registry.
type modelScan struct {
	base               int64
	start, end, origin int
	seed               float64
	processed          int
	speed              float64
	active             bool
}

// modelScanTable mirrors the scans the pool's source reports. It is shared by
// every model shard's predictive policy, like the real pool's one source.
type modelScanTable struct {
	scans map[int64]*modelScan
}

func newModelScanTable() *modelScanTable {
	return &modelScanTable{scans: make(map[int64]*modelScan)}
}

func (t *modelScanTable) register(id int64, base int64, start, end, origin int, seed float64) {
	t.scans[id] = &modelScan{base: base, start: start, end: end, origin: origin, seed: seed, active: true}
}

func (t *modelScanTable) update(id int64, processed int, speed float64) {
	s, ok := t.scans[id]
	if !ok {
		return
	}
	if processed < 0 {
		processed = 0
	}
	if max := s.end - s.start; processed > max {
		processed = max
	}
	s.processed = processed
	s.speed = speed
}

func (t *modelScanTable) setActive(id int64, active bool) {
	if s, ok := t.scans[id]; ok {
		s.active = active
	}
}

func (t *modelScanTable) unregister(id int64) { delete(t.scans, id) }

// modelNextUse is the reference estimator: seconds until some active scan
// next reads pid under the circular straight-line model, +Inf when no scan
// will.
func modelNextUse(t *modelScanTable, pid disk.PageID) float64 {
	best := math.Inf(1)
	for _, s := range t.scans {
		if !s.active || s.end <= s.start || s.origin < s.start || s.origin >= s.end {
			continue // detached, or an invalid footprint the pool ignores
		}
		speed := s.speed
		if speed <= 0 {
			speed = s.seed
		}
		if speed <= 0 {
			speed = 1.0
		}
		pageNo := int(int64(pid) - s.base)
		if pageNo < s.start || pageNo >= s.end {
			continue
		}
		length := s.end - s.start
		rank := pageNo - s.origin
		if rank < 0 {
			rank += length
		}
		if rank < s.processed {
			continue
		}
		if est := float64(rank-s.processed) / speed; est < best {
			best = est
		}
	}
	return best
}

// modelPredictive is the reference predictive policy: one release-order
// list; the victim is the frame with the strictly largest next-use estimate,
// earliest-released on ties, +Inf winning outright.
type modelPredictive struct {
	order []modelEntry
	scans *modelScanTable
}

func (m *modelPredictive) insert(pid disk.PageID, prio Priority) {
	m.order = append(m.order, modelEntry{pid, prio})
}

func (m *modelPredictive) remove(pid disk.PageID, prio Priority) {
	for i, e := range m.order {
		if e.pid == pid {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("model: page %d not on release order", pid))
}

func (m *modelPredictive) victim() (disk.PageID, Priority, bool) {
	if len(m.order) == 0 {
		return disk.InvalidPage, 0, false
	}
	best, bestEst := -1, math.Inf(-1)
	for i, e := range m.order {
		est := modelNextUse(m.scans, e.pid)
		if math.IsInf(est, 1) {
			best = i
			break
		}
		if best < 0 || est > bestEst {
			best, bestEst = i, est
		}
	}
	e := m.order[best]
	m.order = append(m.order[:best], m.order[best+1:]...)
	return e.pid, e.prio, true
}

// modelShard is a single-lock reference implementation of one pool shard
// with the full operation surface — pending frames, Abort, ReleaseRetain,
// multi-pin — written against the documented semantics rather than the
// implementation. (The simpler refPool in model_test.go predates Abort and
// models only the single-pin hit/miss/evict core.) The differential test
// instantiates one modelShard per pool shard and routes operations with the
// pool's own shardIndex, so every Acquire outcome and every counter must
// match exactly, for any shard count and either replacement policy.
type modelShard struct {
	capacity int
	frames   map[disk.PageID]*modelFrame
	policy   modelPolicy
	pending  int
	stats    Stats
	// touched mirrors the per-frame optimistic-read bit: set by a modeled
	// ReadOptimistic hit, consumed by the LRU second-chance walk, cleared
	// when a page is released (recency refreshed) or leaves the shard.
	touched map[disk.PageID]bool
}

func newModelShard(capacity int, policy modelPolicy) *modelShard {
	m := &modelShard{capacity: capacity, frames: make(map[disk.PageID]*modelFrame), policy: policy, touched: map[disk.PageID]bool{}}
	if lru, ok := policy.(*modelLRU); ok {
		lru.touched = m.touched
	}
	return m
}

func (m *modelShard) evict() bool {
	pid, prio, ok := m.policy.victim()
	if !ok {
		return false
	}
	delete(m.frames, pid)
	delete(m.touched, pid)
	m.stats.Evictions++
	m.stats.EvictionsByPriority[prio]++
	return true
}

func (m *modelShard) acquire(pid disk.PageID) Status {
	if f, ok := m.frames[pid]; ok {
		if f.pending {
			m.stats.BusyRetries++
			return Busy
		}
		if f.pins == 0 {
			m.policy.remove(pid, f.prio)
		}
		f.pins++
		m.stats.LogicalReads++
		m.stats.Hits++
		return Hit
	}
	if len(m.frames) >= m.capacity && !m.evict() {
		if m.pending > 0 {
			m.stats.BusyRetries++
			return Busy
		}
		m.stats.AllPinned++
		return AllPinned
	}
	m.frames[pid] = &modelFrame{pins: 1, pending: true}
	m.pending++
	m.stats.LogicalReads++
	m.stats.Misses++
	return Miss
}

func (m *modelShard) fill(pid disk.PageID) {
	f := m.frames[pid]
	f.pending = false
	m.pending--
	m.stats.Fills++
}

func (m *modelShard) abort(pid disk.PageID) {
	delete(m.frames, pid)
	delete(m.touched, pid)
	m.pending--
	m.stats.Aborts++
}

func (m *modelShard) release(pid disk.PageID, prio Priority) {
	f := m.frames[pid]
	f.pins--
	f.prio = prio
	if f.pins == 0 {
		delete(m.touched, pid)
		m.policy.insert(pid, prio)
	}
}

func (m *modelShard) releaseRetain(pid disk.PageID) {
	f := m.frames[pid]
	f.pins--
	if f.pins == 0 {
		delete(m.touched, pid)
		m.policy.insert(pid, f.prio)
	}
}

// contains mirrors Pool.Contains: resident and valid.
func (m *modelShard) contains(pid disk.PageID) bool {
	f, ok := m.frames[pid]
	return ok && !f.pending
}

// modelXlate mirrors the array translation table's observable state: how
// many page ids the flat array currently covers. Coverage grows in whole
// chunks when a miss reserves a frame for an in-range pid; out-of-range
// pids (negative, or past the cap) never touch it.
type modelXlate struct {
	covered int
}

func modelInRange(pid disk.PageID) bool {
	return pid >= 0 && pid < MaxTranslationPages
}

// reserve records the coverage growth a miss-reserve of pid causes.
func (x *modelXlate) reserve(pid disk.PageID) {
	if x == nil || !modelInRange(pid) {
		return
	}
	if want := (int(pid)/xlateChunkPages + 1) * xlateChunkPages; want > x.covered {
		x.covered = want
	}
}

// readOptimistic predicts ReadOptimistic for a single-threaded array pool
// and mutates the model counters exactly as the real fast path does: a hit
// iff pid is in array coverage, resident, and valid; every declined call is
// exactly one fallback; no retries can occur without concurrency. Hits fold
// into Hits and LogicalReads the way snapshotLocked folds the atomic
// counters.
func (m *modelShard) readOptimistic(pid disk.PageID, x *modelXlate) bool {
	if !modelInRange(pid) || int(pid) >= x.covered {
		m.stats.OptimisticFallbacks++
		return false
	}
	f, ok := m.frames[pid]
	if !ok || f.pending {
		m.stats.OptimisticFallbacks++
		return false
	}
	m.stats.OptimisticHits++
	m.stats.Hits++
	m.stats.LogicalReads++
	m.touched[pid] = true // recency feedback the LRU second chance consumes
	return true
}

// TestShardedPoolMatchesModel is the model-based differential test: the real
// pool and the per-shard reference models are driven through the same
// randomized operation sequence — acquires, fills, aborts, releases at every
// priority, priority-retaining releases, multi-pins, optimistic reads, and
// (for the predictive policy) scan registration traffic — and every Acquire
// status, every ReadOptimistic outcome, every counter, and the final
// residency set must agree exactly, per shard and in aggregate. The matrix
// crosses both translation tables with both policies and 1/4/16 shards:
// with one shard this pins down the classic single-mutex semantics the
// replay harness depends on; with several it proves striping changed the
// locking, not the per-shard replacement behavior; across policies it
// proves the policy interface, not the shard plumbing, decides the victims;
// across translations it proves the array table and its overflow map change
// how frames are found, never which outcomes callers see. The pid stream
// occasionally strays outside the array's hard cap (negative ids, ids past
// MaxTranslationPages) so the overflow path faces the same differential
// scrutiny.
func TestShardedPoolMatchesModel(t *testing.T) {
	for _, translation := range Translations() {
		for _, policy := range Policies() {
			for _, shards := range []int{1, 4, 16} {
				t.Run(fmt.Sprintf("%s/%s/shards=%d", translation, policy, shards), func(t *testing.T) {
					for seed := int64(0); seed < 8; seed++ {
						runShardedModelSeq(t, translation, policy, shards, seed)
					}
				})
			}
		}
	}
}

func runShardedModelSeq(t *testing.T, translation, policy string, shards int, seed int64) {
	t.Helper()
	const (
		capacity  = 17 // >= the largest shard count in the matrix
		pageRange = 40
		steps     = 1500
	)
	rng := rand.New(rand.NewSource(seed))
	pool := MustNewPoolOpts(PoolOptions{
		Capacity: capacity, Shards: shards, Policy: policy, Translation: translation,
	})

	// The model's view of array-translation coverage; nil under map
	// translation, where ReadOptimistic declines without counting anything.
	var xlate *modelXlate
	if translation == TranslationArray {
		xlate = &modelXlate{}
	}

	// Mostly in-universe page ids, with an occasional excursion outside the
	// flat array's representable range to exercise the overflow map.
	outliers := []disk.PageID{-2, -1, MaxTranslationPages, MaxTranslationPages + 1}
	randPid := func() disk.PageID {
		if rng.Intn(12) == 0 {
			return outliers[rng.Intn(len(outliers))]
		}
		return disk.PageID(rng.Intn(pageRange))
	}
	allPids := func() []disk.PageID {
		out := make([]disk.PageID, 0, pageRange+len(outliers))
		for p := 0; p < pageRange; p++ {
			out = append(out, disk.PageID(p))
		}
		return append(out, outliers...)
	}()

	// One reference model per shard, with the pool's exact capacity split.
	// The predictive models share one scan table, like the real shards
	// share the pool's scan source.
	src := newFakeScans(pool)
	scanTbl := newModelScanTable()
	newPolicyModel := func() modelPolicy {
		if policy == PolicyPredictive {
			return &modelPredictive{scans: scanTbl}
		}
		return &modelLRU{}
	}
	refs := make([]*modelShard, shards)
	base, extra := capacity/shards, capacity%shards
	for i := range refs {
		c := base
		if i < extra {
			c++
		}
		refs[i] = newModelShard(c, newPolicyModel())
	}
	ref := func(pid disk.PageID) *modelShard { return refs[pool.shardIndex(pid)] }

	// Driver-side view of what we hold: pin counts on valid frames, and the
	// set of pending frames we reserved and still owe a Fill or Abort.
	pins := map[disk.PageID]int{}
	pendingOwned := map[disk.PageID]bool{}
	sortedKeys := func(m map[disk.PageID]int) []disk.PageID {
		out := make([]disk.PageID, 0, len(m))
		for pid := range m {
			out = append(out, pid)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	sortedPending := func() []disk.PageID {
		out := make([]disk.PageID, 0, len(pendingOwned))
		for pid := range pendingOwned {
			out = append(out, pid)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}

	checkStats := func(step int) {
		t.Helper()
		var want Stats
		for _, m := range refs {
			want.Add(m.stats)
		}
		if got := pool.Stats(); got != want {
			t.Fatalf("%s shards=%d seed=%d step %d: stats diverge\npool:  %+v\nmodel: %+v",
				policy, shards, seed, step, got, want)
		}
		// The per-shard breakdown must match exactly too: the fold of the
		// lock-free optimistic counters into each shard's snapshot is part
		// of the contract the report plumbing builds on.
		for i, got := range pool.ShardStats() {
			if got != refs[i].stats {
				t.Fatalf("%s shards=%d seed=%d step %d: shard %d stats diverge\npool:  %+v\nmodel: %+v",
					policy, shards, seed, step, i, got, refs[i].stats)
			}
		}
	}

	// scanEvent drives the pool's scan source and mirrors it into the model
	// table. The LRU pool must ignore the source; the model table is simply
	// never consulted there, so any effect it had on eviction would show up
	// as a divergence.
	speeds := []float64{0, -3, 0.25, 1, 4, 50}
	scanEvent := func() {
		id := int64(rng.Intn(2))
		switch rng.Intn(5) {
		case 0: // register, sometimes with an invalid footprint
			start := rng.Intn(pageRange - 1)
			end := start + 1 + rng.Intn(pageRange-start)
			origin := start + rng.Intn(end-start)
			if rng.Intn(5) == 0 {
				end = start // invalid: the scan must protect nothing on both sides
			}
			seedSpeed := speeds[rng.Intn(len(speeds))]
			src.register(id, ScanFootprint{Base: 0, Start: start, End: end, Origin: origin}, seedSpeed)
			scanTbl.register(id, 0, start, end, origin, seedSpeed)
		case 1, 2: // progress report, possibly out of range
			processed := rng.Intn(pageRange+10) - 5
			sp := speeds[rng.Intn(len(speeds))]
			src.update(id, processed, sp)
			scanTbl.update(id, processed, sp)
		case 3:
			active := rng.Intn(2) == 0
			src.setActive(id, active)
			scanTbl.setActive(id, active)
		default:
			src.unregister(id)
			scanTbl.unregister(id)
		}
	}

	for step := 0; step < steps; step++ {
		switch r := rng.Intn(14); {
		case r < 4: // acquire a page, possibly one we already hold
			pid := randPid()
			got, _ := pool.Acquire(pid)
			want := ref(pid).acquire(pid)
			if got != want {
				t.Fatalf("%s shards=%d seed=%d step %d: Acquire(%d) = %v, model says %v",
					policy, shards, seed, step, pid, got, want)
			}
			switch got {
			case Hit:
				pins[pid]++
			case Miss:
				pendingOwned[pid] = true
				xlate.reserve(pid)
			}
		case r < 6: // settle a pending frame we own: usually Fill, sometimes Abort
			owned := sortedPending()
			if len(owned) == 0 {
				continue
			}
			pid := owned[rng.Intn(len(owned))]
			delete(pendingOwned, pid)
			if rng.Intn(4) == 0 {
				if err := pool.Abort(pid); err != nil {
					t.Fatalf("%s shards=%d seed=%d step %d: Abort(%d): %v", policy, shards, seed, step, pid, err)
				}
				ref(pid).abort(pid)
			} else {
				if err := pool.Fill(pid, []byte{byte(pid)}); err != nil {
					t.Fatalf("%s shards=%d seed=%d step %d: Fill(%d): %v", policy, shards, seed, step, pid, err)
				}
				ref(pid).fill(pid)
				pins[pid]++
			}
		case r < 9: // release one pin at a random priority
			held := sortedKeys(pins)
			if len(held) == 0 {
				continue
			}
			pid := held[rng.Intn(len(held))]
			prio := Priority(rng.Intn(NumPriorities))
			if err := pool.Release(pid, prio); err != nil {
				t.Fatalf("%s shards=%d seed=%d step %d: Release(%d, %v): %v", policy, shards, seed, step, pid, prio, err)
			}
			ref(pid).release(pid, prio)
			if pins[pid]--; pins[pid] == 0 {
				delete(pins, pid)
			}
		case r < 10: // priority-retaining release
			held := sortedKeys(pins)
			if len(held) == 0 {
				continue
			}
			pid := held[rng.Intn(len(held))]
			if err := pool.ReleaseRetain(pid); err != nil {
				t.Fatalf("%s shards=%d seed=%d step %d: ReleaseRetain(%d): %v", policy, shards, seed, step, pid, err)
			}
			ref(pid).releaseRetain(pid)
			if pins[pid]--; pins[pid] == 0 {
				delete(pins, pid)
			}
		case r < 12: // optimistic lock-free read attempt
			pid := randPid()
			data, ok := pool.ReadOptimistic(pid)
			want := false
			if xlate != nil {
				want = ref(pid).readOptimistic(pid, xlate)
			}
			if ok != want {
				t.Fatalf("%s shards=%d seed=%d step %d: ReadOptimistic(%d) = %v, model says %v",
					policy, shards, seed, step, pid, ok, want)
			}
			if ok && (len(data) != 1 || data[0] != byte(pid)) {
				t.Fatalf("%s shards=%d seed=%d step %d: ReadOptimistic(%d) returned %v",
					policy, shards, seed, step, pid, data)
			}
		default: // scan registration traffic
			scanEvent()
		}

		if step%100 == 99 {
			checkStats(step)
			pool.CheckInvariants()
			for _, pid := range allPids {
				if got, want := pool.Contains(pid), ref(pid).contains(pid); got != want {
					t.Fatalf("%s shards=%d seed=%d step %d: Contains(%d) = %v, model says %v",
						policy, shards, seed, step, pid, got, want)
				}
			}
		}
	}

	// Final agreement: counters, occupancy, the valid-residency set, and the
	// ISSUE's stats identity, plus the pool's own structural invariants.
	checkStats(steps)
	pool.CheckInvariants()
	wantLen := 0
	for _, m := range refs {
		wantLen += len(m.frames)
	}
	if got := pool.Len(); got != wantLen {
		t.Fatalf("%s shards=%d seed=%d: Len() = %d, model has %d resident", policy, shards, seed, got, wantLen)
	}
	for _, pid := range allPids {
		if got, want := pool.Contains(pid), ref(pid).contains(pid); got != want {
			t.Fatalf("%s shards=%d seed=%d: Contains(%d) = %v, model says %v", policy, shards, seed, pid, got, want)
		}
	}
	if xlate != nil {
		if got := pool.xlate.covered(); got != xlate.covered {
			t.Fatalf("%s shards=%d seed=%d: array covers %d pages, model says %d",
				policy, shards, seed, got, xlate.covered)
		}
	}
	st := pool.Stats()
	if st.PagesDelivered() != st.Hits+st.Misses-st.Aborts {
		t.Fatalf("%s shards=%d seed=%d: delivered identity broken: %+v", policy, shards, seed, st)
	}
	if want := st.Fills + st.Aborts + int64(len(pendingOwned)); st.Misses != want {
		t.Fatalf("%s shards=%d seed=%d: misses %d != fills %d + aborts %d + %d still pending",
			policy, shards, seed, st.Misses, st.Fills, st.Aborts, len(pendingOwned))
	}
}
