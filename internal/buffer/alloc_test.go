package buffer

import (
	"fmt"
	"testing"

	"scanshare/internal/disk"
	"scanshare/internal/heap/heaptest"
)

// TestPoolPathDoesNotAllocate pins the page path's allocation ceiling: once
// a pool has warmed up, a hit, a miss that fills and evicts, an aborted
// miss, and a prefetcher's ReleaseRetain allocate nothing under either
// translation and either policy. Frames come from the shard's arena and the
// replacement lists are threaded through the frames. The one allocation
// left on the page path is array translation's content cell, published
// fresh by every Fill: it must stay immutable for optimistic readers that
// still hold the previous one (see translation.go). Every pool has a scan
// source attached, which the predictive victim reads; its scans protect no
// page of the cycle, so both policies still evict in release order.
func TestPoolPathDoesNotAllocate(t *testing.T) {
	if heaptest.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const (
		capacity = 8
		cycle    = 4 * capacity // a page cycle the pool cannot hold
	)
	pages := make([][]byte, cycle)
	for i := range pages {
		pages[i] = []byte{byte(i)}
	}
	for _, tr := range Translations() {
		for _, pol := range Policies() {
			t.Run(tr+"/"+pol, func(t *testing.T) {
				p := MustNewPoolOpts(PoolOptions{Capacity: capacity, Policy: pol, Translation: tr})
				src := newFakeScans(p)
				// One scan elsewhere on the device, one past every page of
				// the cycle.
				src.register(1, ScanFootprint{Base: 1 << 20, Start: 0, End: cycle, Origin: 0}, 10)
				src.register(2, ScanFootprint{Start: 0, End: cycle, Origin: 0}, 10)
				src.update(2, cycle, 10)
				next := 0
				missFillRelease := func() {
					pid := disk.PageID(next % cycle)
					next++
					if st, _ := p.Acquire(pid); st != Miss {
						panic(fmt.Sprintf("Acquire(%d) = %v, want miss", pid, st))
					}
					if err := p.Fill(pid, pages[pid]); err != nil {
						panic(err)
					}
					if err := p.Release(pid, PriorityNormal); err != nil {
						panic(err)
					}
				}
				// Warm up: fill the arena and churn the frame map through
				// several page cycles so its tables have reached their
				// steady-state size.
				for i := 0; i < 16*cycle; i++ {
					missFillRelease()
				}

				fillAllocs := 0.0
				if tr == TranslationArray {
					fillAllocs = 1 // the content cell
				}
				check := func(op string, want float64, fn func()) {
					if got := testing.AllocsPerRun(200, fn); got != want {
						t.Errorf("%s: %v allocations per op, want %v", op, got, want)
					}
				}
				check("miss+fill+release with eviction", fillAllocs, missFillRelease)

				// The pool holds the last capacity pages of the cycle, since
				// both policies evict in release order here; hit them in turn.
				last, hits := next, 0
				hit := func() disk.PageID {
					pid := disk.PageID((last - capacity + hits%capacity) % cycle)
					hits++
					if st, _ := p.Acquire(pid); st != Hit {
						panic(fmt.Sprintf("Acquire(%d) = %v, want hit", pid, st))
					}
					return pid
				}
				check("hit+release", 0, func() {
					if err := p.Release(hit(), PriorityHigh); err != nil {
						panic(err)
					}
				})
				check("hit+release-retain", 0, func() {
					if err := p.ReleaseRetain(hit()); err != nil {
						panic(err)
					}
				})
				// The first aborted miss evicts (the pool is full); each
				// returns its frame to the freelist. The aborted pages lie
				// outside the cycle, so they never collide with a resident one.
				aborts := 0
				check("miss+abort", 0, func() {
					pid := disk.PageID(cycle + aborts%cycle)
					aborts++
					if st, _ := p.Acquire(pid); st != Miss {
						panic(fmt.Sprintf("Acquire(%d) = %v, want miss", pid, st))
					}
					if err := p.Abort(pid); err != nil {
						panic(err)
					}
				})
				p.CheckInvariants()
				if read := src.reads.Load() > 0; read != (pol == PolicyPredictive) {
					t.Errorf("scan source read: %v, want %v", read, pol == PolicyPredictive)
				}
			})
		}
	}
}

// TestPredictiveVictimDoesNotAllocate pins a warm predictive victim at zero
// allocations: with three live scans at different positions over a page
// cycle four times the pool, every miss evicts by next-use estimate, and
// reading the scans into the shard's scratch slice allocates nothing once
// the slice has grown.
func TestPredictiveVictimDoesNotAllocate(t *testing.T) {
	if heaptest.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const (
		capacity = 8
		cycle    = 4 * capacity
	)
	p := MustNewPoolPolicy(capacity, 1, PolicyPredictive)
	src := newFakeScans(p)
	for i := int64(0); i < 3; i++ {
		src.register(i, ScanFootprint{Start: 0, End: cycle, Origin: int(i) * 10}, float64(5+i))
		src.update(i, int(i)*3, float64(10*(i+1)))
	}
	page := []byte{1}
	next := 0
	touch := func() {
		pid := disk.PageID(next % cycle)
		next++
		switch st, _ := p.Acquire(pid); st {
		case Miss:
			if err := p.Fill(pid, page); err != nil {
				panic(err)
			}
		case Hit:
		default:
			panic(fmt.Sprintf("Acquire(%d) = %v", pid, st))
		}
		if err := p.Release(pid, PriorityNormal); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 16*cycle; i++ {
		touch()
	}
	before := p.Stats().Evictions
	if got := testing.AllocsPerRun(200, touch); got != 0 {
		t.Errorf("%v allocations per page, want 0", got)
	}
	if p.Stats().Evictions == before {
		t.Fatal("no eviction happened; the victim path went unmeasured")
	}
	p.CheckInvariants()
}
