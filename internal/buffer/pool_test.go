package buffer

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"scanshare/internal/disk"
)

// load simulates a full fetch cycle: acquire, fill on miss, leaving the page
// pinned. It fails the test on Busy since single-threaded tests should never
// see one unless the pool is exhausted.
func load(t *testing.T, p *Pool, pid disk.PageID) Status {
	t.Helper()
	st, _ := p.Acquire(pid)
	if st == Miss {
		if err := p.Fill(pid, []byte{byte(pid)}); err != nil {
			t.Fatalf("Fill(%d): %v", pid, err)
		}
	}
	return st
}

func TestNewPoolRejectsBadCapacity(t *testing.T) {
	if _, err := NewPool(0); err == nil {
		t.Error("NewPool(0) succeeded")
	}
	if _, err := NewPool(-5); err == nil {
		t.Error("NewPool(-5) succeeded")
	}
}

func TestMissThenHit(t *testing.T) {
	p := MustNewPool(4)
	if st := load(t, p, 7); st != Miss {
		t.Fatalf("first acquire: %v, want miss", st)
	}
	p.Release(7, PriorityNormal)
	st, data := p.Acquire(7)
	if st != Hit {
		t.Fatalf("second acquire: %v, want hit", st)
	}
	if len(data) != 1 || data[0] != 7 {
		t.Errorf("hit returned wrong data: %v", data)
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.LogicalReads != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPendingPageIsBusyForOthers(t *testing.T) {
	p := MustNewPool(4)
	if st, _ := p.Acquire(1); st != Miss {
		t.Fatal("expected miss")
	}
	// Second acquirer arrives before Fill: models waiting on in-flight I/O.
	if st, _ := p.Acquire(1); st != Busy {
		t.Error("acquire of pending page should be Busy")
	}
	p.Fill(1, []byte{1})
	if st, _ := p.Acquire(1); st != Hit {
		t.Error("acquire after Fill should Hit")
	}
}

func TestEvictionIsLRUWithinLevel(t *testing.T) {
	p := MustNewPool(2)
	load(t, p, 1)
	p.Release(1, PriorityNormal)
	load(t, p, 2)
	p.Release(2, PriorityNormal)
	// Touch page 1 so page 2 becomes least recently released.
	load(t, p, 1)
	p.Release(1, PriorityNormal)
	load(t, p, 3) // must evict 2
	if p.Contains(2) {
		t.Error("page 2 should have been evicted (LRU)")
	}
	if !p.Contains(1) {
		t.Error("page 1 should still be resident")
	}
}

func TestEvictionPrefersLowerPriority(t *testing.T) {
	p := MustNewPool(3)
	load(t, p, 1)
	p.Release(1, PriorityHigh)
	load(t, p, 2)
	p.Release(2, PriorityEvict)
	load(t, p, 3)
	p.Release(3, PriorityNormal)
	load(t, p, 4) // evicts 2 (lowest priority), not 1 (oldest)
	if p.Contains(2) {
		t.Error("PriorityEvict page survived over higher levels")
	}
	if !p.Contains(1) || !p.Contains(3) {
		t.Error("higher-priority pages were evicted")
	}
	s := p.Stats()
	if s.EvictionsByPriority[PriorityEvict] != 1 || s.Evictions != 1 {
		t.Errorf("eviction accounting wrong: %+v", s)
	}
}

func TestHighPriorityOutlivesManyNormalPages(t *testing.T) {
	// A leader's high-priority page must survive a stream of normal
	// releases that exceeds pool capacity — the mechanism the sharing
	// manager relies on.
	p := MustNewPool(8)
	load(t, p, 100)
	p.Release(100, PriorityHigh)
	for pid := disk.PageID(0); pid < 20; pid++ {
		load(t, p, pid)
		p.Release(pid, PriorityNormal)
	}
	if !p.Contains(100) {
		t.Error("high-priority page was evicted by normal-priority churn")
	}
}

func TestPinnedPagesAreNotEvicted(t *testing.T) {
	p := MustNewPool(2)
	load(t, p, 1) // stays pinned
	load(t, p, 2) // stays pinned
	if st, _ := p.Acquire(3); st != AllPinned {
		t.Errorf("acquire with all frames pinned: %v, want all-pinned", st)
	}
	p.Release(1, PriorityNormal)
	if st, _ := p.Acquire(3); st != Miss {
		t.Error("acquire after release should reserve a frame")
	}
	if p.Contains(1) {
		t.Error("released page should have been the victim")
	}
	if !p.Contains(2) {
		t.Error("pinned page 2 was evicted")
	}
}

func TestMultiplePins(t *testing.T) {
	p := MustNewPool(2)
	load(t, p, 1)
	if st, _ := p.Acquire(1); st != Hit {
		t.Fatal("second pin should hit")
	}
	p.Release(1, PriorityNormal)
	// Still pinned once; must not be evictable.
	load(t, p, 2)
	p.Release(2, PriorityNormal)
	if st, _ := p.Acquire(3); st != Miss {
		t.Fatal("expected miss for page 3")
	}
	if p.Contains(1) == false {
		t.Error("page 1 evicted while still pinned once")
	}
	if p.Contains(2) {
		t.Error("page 2 should have been the victim")
	}
}

func TestReleaseErrors(t *testing.T) {
	p := MustNewPool(2)
	if err := p.Release(9, PriorityNormal); err == nil {
		t.Error("release of non-resident page succeeded")
	}
	p.Acquire(1)
	if err := p.Release(1, PriorityNormal); err == nil {
		t.Error("release of pending page succeeded")
	}
	p.Fill(1, nil)
	if err := p.Release(1, Priority(99)); err == nil {
		t.Error("release with invalid priority succeeded")
	}
	p.Release(1, PriorityNormal)
	if err := p.Release(1, PriorityNormal); err == nil {
		t.Error("double release succeeded")
	}
}

func TestFillErrors(t *testing.T) {
	p := MustNewPool(2)
	if err := p.Fill(5, nil); err == nil {
		t.Error("Fill of non-resident page succeeded")
	}
	load(t, p, 1)
	if err := p.Fill(1, nil); err == nil {
		t.Error("double Fill succeeded")
	}
}

func TestAbortFreesFrame(t *testing.T) {
	p := MustNewPool(1)
	if st, _ := p.Acquire(1); st != Miss {
		t.Fatal("expected miss")
	}
	if err := p.Abort(1); err != nil {
		t.Fatal(err)
	}
	if st, _ := p.Acquire(2); st != Miss {
		t.Error("frame not freed by Abort")
	}
	if err := p.Abort(2); err != nil {
		t.Fatal(err)
	}
	if err := p.Abort(2); err == nil {
		t.Error("double Abort succeeded")
	}
}

func TestHitRatio(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 {
		t.Error("empty stats hit ratio should be 0")
	}
	s = Stats{LogicalReads: 4, Hits: 3}
	if s.HitRatio() != 0.75 {
		t.Errorf("HitRatio = %v, want 0.75", s.HitRatio())
	}
}

func TestPriorityString(t *testing.T) {
	for pr, want := range map[Priority]string{
		PriorityEvict:  "evict",
		PriorityLow:    "low",
		PriorityNormal: "normal",
		PriorityHigh:   "high",
		Priority(9):    "Priority(9)",
	} {
		if pr.String() != want {
			t.Errorf("Priority(%d).String() = %q, want %q", int(pr), pr.String(), want)
		}
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{Hit: "hit", Miss: "miss", Busy: "busy", Status(7): "Status(7)"} {
		if st.String() != want {
			t.Errorf("Status.String() = %q, want %q", st.String(), want)
		}
	}
}

func TestResetStats(t *testing.T) {
	p := MustNewPool(2)
	load(t, p, 1)
	p.ResetStats()
	if s := p.Stats(); s != (Stats{}) {
		t.Errorf("stats after reset: %+v", s)
	}
	if !p.Contains(1) || p.Len() != 1 {
		t.Error("reset should not drop cached pages")
	}
}

// TestRandomWorkloadInvariants drives the pool with random operation
// sequences and checks the internal invariants plus capacity bounds after
// every step.
func TestRandomWorkloadInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := MustNewPool(1 + rng.Intn(16))
		pinned := map[disk.PageID]int{}
		for step := 0; step < 500; step++ {
			pid := disk.PageID(rng.Intn(64))
			switch rng.Intn(3) {
			case 0, 1: // fetch
				st, _ := p.Acquire(pid)
				switch st {
				case Miss:
					if rng.Intn(10) == 0 {
						p.Abort(pid)
					} else {
						p.Fill(pid, []byte{byte(pid)})
						pinned[pid]++
					}
				case Hit:
					pinned[pid]++
				case Busy:
					// fine; try something else next step
				}
			case 2: // release one pin if we hold any
				for held, n := range pinned {
					if n > 0 {
						if err := p.Release(held, Priority(rng.Intn(int(numPriorities)))); err != nil {
							return false
						}
						if n == 1 {
							delete(pinned, held)
						} else {
							pinned[held] = n - 1
						}
						break
					}
				}
			}
			p.CheckInvariants()
			if p.Len() > p.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccessIsSafe(t *testing.T) {
	p := MustNewPool(32)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				pid := disk.PageID(rng.Intn(100))
				st, _ := p.Acquire(pid)
				switch st {
				case Miss:
					if err := p.Fill(pid, []byte{byte(pid)}); err != nil {
						done <- fmt.Errorf("fill: %w", err)
						return
					}
					fallthrough
				case Hit:
					if err := p.Release(pid, Priority(rng.Intn(int(numPriorities)))); err != nil {
						done <- fmt.Errorf("release: %w", err)
						return
					}
				case Busy:
					// retry next iteration
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	p.CheckInvariants()
}
