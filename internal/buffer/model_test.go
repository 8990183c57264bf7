package buffer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"scanshare/internal/disk"
)

// refPool is an obviously-correct reference implementation of the pool's
// replacement contract for the single-pin workload the quick.Check harness
// drives. Under priority-LRU, unpinned pages live in per-priority FIFO lists
// (least recently released first) and the victim is the front of the lowest
// occupied priority level. Under the predictive policy, unpinned pages live
// in one global release-order list and the victim is the page with the
// largest next-use estimate against the registered scans (earliest released
// on ties, no-coverage pages first). The real pool must evict exactly the
// same pages in the same order.
type refPool struct {
	capacity int
	policy   string
	pinned   map[disk.PageID]int
	levels   [numPriorities][]disk.PageID // priority-lru order
	order    []disk.PageID                // predictive release order
	scans    *modelScanTable              // predictive registrations
}

func newRefPool(capacity int, policy string) *refPool {
	return &refPool{
		capacity: capacity,
		policy:   policy,
		pinned:   map[disk.PageID]int{},
		scans:    newModelScanTable(),
	}
}

func (r *refPool) resident(pid disk.PageID) bool {
	if _, ok := r.pinned[pid]; ok {
		return true
	}
	for lvl := range r.levels {
		for _, p := range r.levels[lvl] {
			if p == pid {
				return true
			}
		}
	}
	for _, p := range r.order {
		if p == pid {
			return true
		}
	}
	return false
}

func (r *refPool) size() int {
	n := len(r.pinned) + len(r.order)
	for lvl := range r.levels {
		n += len(r.levels[lvl])
	}
	return n
}

// unpin removes pid from the policy order, reporting whether it was there.
func (r *refPool) unpin(pid disk.PageID) bool {
	for lvl := range r.levels {
		for i, p := range r.levels[lvl] {
			if p == pid {
				r.levels[lvl] = append(r.levels[lvl][:i], r.levels[lvl][i+1:]...)
				return true
			}
		}
	}
	for i, p := range r.order {
		if p == pid {
			r.order = append(r.order[:i], r.order[i+1:]...)
			return true
		}
	}
	return false
}

// evict picks and removes the policy's victim, reporting success.
func (r *refPool) evict() bool {
	if r.policy == PolicyPredictive {
		if len(r.order) == 0 {
			return false
		}
		best, bestEst := -1, math.Inf(-1)
		for i, p := range r.order {
			est := modelNextUse(r.scans, p)
			if math.IsInf(est, 1) {
				best = i
				break
			}
			if best < 0 || est > bestEst {
				best, bestEst = i, est
			}
		}
		r.order = append(r.order[:best], r.order[best+1:]...)
		return true
	}
	for lvl := range r.levels {
		if len(r.levels[lvl]) > 0 {
			r.levels[lvl] = r.levels[lvl][1:]
			return true
		}
	}
	return false
}

// acquire mirrors Pool.Acquire for the single-pin workload the model test
// drives (each page pinned at most once at a time). It returns hit status.
func (r *refPool) acquire(pid disk.PageID) (hit bool, ok bool) {
	// Hit on an unpinned resident page promotes it to pinned.
	if r.unpin(pid) {
		r.pinned[pid] = 1
		return true, true
	}
	if _, pinnedAlready := r.pinned[pid]; pinnedAlready {
		// The model test never double-pins; treat as error.
		return false, false
	}
	if r.size() >= r.capacity && !r.evict() {
		return false, false // all pinned: busy
	}
	r.pinned[pid] = 1
	return false, true
}

func (r *refPool) release(pid disk.PageID, prio Priority) {
	delete(r.pinned, pid)
	if r.policy == PolicyPredictive {
		r.order = append(r.order, pid)
		return
	}
	r.levels[prio] = append(r.levels[prio], pid)
}

// TestPoolMatchesReferenceModel drives the real pool and the reference model
// with the same random operation stream and insists on identical residency
// after every step, once per replacement policy. The predictive run keeps
// two live scan registrations (mirrored on both sides, updated mid-stream)
// so eviction is exercised with real position knowledge, not just the
// no-scans LRU degenerate case.
func TestPoolMatchesReferenceModel(t *testing.T) {
	const pageRange = 40
	for _, policy := range Policies() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				capacity := 2 + rng.Intn(12)
				pool := MustNewPoolPolicy(capacity, 1, policy)
				src := newFakeScans(pool)
				ref := newRefPool(capacity, policy)
				held := map[disk.PageID]bool{}

				registerScan := func(id int64) {
					start := rng.Intn(pageRange - 1)
					end := start + 1 + rng.Intn(pageRange-start)
					origin := start + rng.Intn(end-start)
					seedSpeed := float64(1 + rng.Intn(8))
					src.register(id, ScanFootprint{Start: start, End: end, Origin: origin}, seedSpeed)
					ref.scans.register(id, 0, start, end, origin, seedSpeed)
				}
				if policy == PolicyPredictive {
					registerScan(1)
					registerScan(2)
				}

				for step := 0; step < 400; step++ {
					if policy == PolicyPredictive && rng.Intn(12) == 0 {
						// Move a scan forward (or re-place it) on both sides.
						id := int64(1 + rng.Intn(2))
						if rng.Intn(6) == 0 {
							registerScan(id)
						} else {
							processed := rng.Intn(pageRange)
							sp := float64(rng.Intn(6)) // 0 exercises the seed fallback
							src.update(id, processed, sp)
							ref.scans.update(id, processed, sp)
						}
					}
					if rng.Intn(2) == 0 && len(held) > 0 {
						// Release a random held page at a random priority.
						var pid disk.PageID = -1
						n := rng.Intn(len(held))
						for p := range held {
							if n == 0 {
								pid = p
								break
							}
							n--
						}
						prio := Priority(rng.Intn(int(numPriorities)))
						if err := pool.Release(pid, prio); err != nil {
							t.Logf("seed %d step %d: release: %v", seed, step, err)
							return false
						}
						ref.release(pid, prio)
						delete(held, pid)
					} else {
						pid := disk.PageID(rng.Intn(pageRange))
						if held[pid] {
							continue // keep the single-pin discipline
						}
						st, _ := pool.Acquire(pid)
						refHit, refOK := ref.acquire(pid)
						switch st {
						case Busy, AllPinned:
							if refOK {
								t.Logf("seed %d step %d: pool %v, model not", seed, step, st)
								return false
							}
							continue
						case Hit:
							if !refOK || !refHit {
								t.Logf("seed %d step %d: pool hit, model %v/%v", seed, step, refHit, refOK)
								return false
							}
						case Miss:
							if !refOK || refHit {
								t.Logf("seed %d step %d: pool miss, model %v/%v", seed, step, refHit, refOK)
								return false
							}
							pool.Fill(pid, []byte{byte(pid)})
						}
						held[pid] = true
					}
					// Residency must agree exactly.
					for pid := disk.PageID(0); pid < pageRange; pid++ {
						real := pool.Contains(pid) || held[pid]
						if real != ref.resident(pid) {
							t.Logf("seed %d step %d: page %d residency pool=%v model=%v",
								seed, step, pid, real, ref.resident(pid))
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}
