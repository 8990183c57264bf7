package buffer

import (
	"testing"

	"scanshare/internal/disk"
)

// fillRelease misses pid in, fills it, and releases it at prio.
func fillRelease(t *testing.T, p *Pool, pid disk.PageID, prio Priority) {
	t.Helper()
	st, _ := p.Acquire(pid)
	if st != Miss {
		t.Fatalf("Acquire(%d) = %v, want Miss", pid, st)
	}
	if err := p.Fill(pid, []byte{byte(pid)}); err != nil {
		t.Fatalf("Fill(%d): %v", pid, err)
	}
	if err := p.Release(pid, prio); err != nil {
		t.Fatalf("Release(%d): %v", pid, err)
	}
}

// TestOptimisticHitsProtectHotSet is the regression test for the satellite
// fix: before the touch path, pages served exclusively through ReadOptimistic
// never refreshed their LRU recency, so a cold churn stream would evict the
// hottest pages in the pool first. Now every validated optimistic hit sets
// the frame's touched bit and the priority-LRU victim walk grants it a
// second chance, so a hot set that is read lock-free on every round survives
// a churn stream several times the pool's capacity.
func TestOptimisticHitsProtectHotSet(t *testing.T) {
	const (
		capacity = 8
		hotPages = 4
		churn    = 64 // cold pages streamed through, 8x capacity
	)
	for _, policy := range Policies() {
		t.Run(policy, func(t *testing.T) {
			p := MustNewPoolOpts(PoolOptions{
				Capacity: capacity, Policy: policy, Translation: TranslationArray,
			})
			// For the predictive policy the hot set's protection comes from
			// the scan source, not the touched bit: keep a live scan whose
			// upcoming pages are exactly the hot set, as the sharing manager
			// would report it.
			if policy == PolicyPredictive {
				newFakeScans(p).register(1, ScanFootprint{Start: 0, End: hotPages, Origin: 0}, 1)
			}
			for pid := disk.PageID(0); pid < hotPages; pid++ {
				fillRelease(t, p, pid, PriorityNormal)
			}
			// Optimistic-heavy steady state: every round reads the whole hot
			// set lock-free, then faults in one cold page. The cold pages are
			// released at the same priority as the hot set, so without the
			// touch path the hot pages (least recently *released*) would be
			// the first victims.
			for i := 0; i < churn; i++ {
				for pid := disk.PageID(0); pid < hotPages; pid++ {
					if _, ok := p.ReadOptimistic(pid); !ok {
						t.Fatalf("round %d: hot page %d was evicted (ReadOptimistic declined)", i, pid)
					}
				}
				fillRelease(t, p, disk.PageID(1000+i), PriorityNormal)
			}
			for pid := disk.PageID(0); pid < hotPages; pid++ {
				if !p.Contains(pid) {
					t.Errorf("hot page %d not resident after churn", pid)
				}
			}
			st := p.Stats()
			if want := int64(churn * hotPages); st.OptimisticHits != want {
				t.Errorf("OptimisticHits = %d, want %d (every hot read lock-free)", st.OptimisticHits, want)
			}
			p.CheckInvariants()
		})
	}
}

// TestSecondChanceDoesNotLivelock pins down the bounded-walk guarantee: when
// every unpinned frame is touched, eviction must still succeed (the walk
// clears each bit once and falls back to the original front), not spin or
// report the shard unevictable.
func TestSecondChanceDoesNotLivelock(t *testing.T) {
	const capacity = 4
	p := MustNewPoolOpts(PoolOptions{Capacity: capacity, Translation: TranslationArray})
	for pid := disk.PageID(0); pid < capacity; pid++ {
		fillRelease(t, p, pid, PriorityNormal)
	}
	for pid := disk.PageID(0); pid < capacity; pid++ {
		if _, ok := p.ReadOptimistic(pid); !ok {
			t.Fatalf("ReadOptimistic(%d) declined on a resident page", pid)
		}
	}
	// The pool is full and every frame touched: the next miss must still
	// find a victim, and it must be page 0 (the original front, its second
	// chance consumed along with everyone else's).
	st, _ := p.Acquire(disk.PageID(100))
	if st != Miss {
		t.Fatalf("Acquire(100) = %v, want Miss", st)
	}
	if err := p.Fill(100, []byte{100}); err != nil {
		t.Fatal(err)
	}
	if p.Contains(0) {
		t.Error("page 0 should have been the victim after all second chances were spent")
	}
	for pid := disk.PageID(1); pid < capacity; pid++ {
		if !p.Contains(pid) {
			t.Errorf("page %d evicted out of order", pid)
		}
	}
	if got := p.Stats().Evictions; got != 1 {
		t.Errorf("Evictions = %d, want 1", got)
	}
	p.CheckInvariants()
}

// TestMapTranslationNeverTouches pins the staleness contract for the classic
// pool: under map translation ReadOptimistic declines without side effects,
// no touched bit is ever set, and eviction is byte-for-byte the paper's
// priority-LRU — which the deterministic replay goldens depend on.
func TestMapTranslationNeverTouches(t *testing.T) {
	p := MustNewPool(2)
	fillRelease(t, p, 1, PriorityNormal)
	fillRelease(t, p, 2, PriorityNormal)
	if _, ok := p.ReadOptimistic(1); ok {
		t.Fatal("map-translation pool served an optimistic read")
	}
	fillRelease(t, p, 3, PriorityNormal)
	if p.Contains(1) {
		t.Error("page 1 survived; the optimistic probe must not have refreshed it")
	}
	st := p.Stats()
	if st.OptimisticHits != 0 || st.OptimisticRetries != 0 {
		t.Errorf("map pool recorded optimistic traffic: %+v", st)
	}
}
