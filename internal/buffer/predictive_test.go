package buffer

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"scanshare/internal/disk"
)

// fakeScans is a ScanSource the tests drive by hand, with the registry
// semantics the sharing manager gives the engine's pools: a registration
// holds a footprint and a seed speed (re-registering an id replaces it), an
// update sets progress and the measured speed, a non-positive measured speed
// falls back to the seed, and an inactive (detached) scan is not reported.
// Footprints and progress pass through unchecked, so the pool's own
// defences stay under test. reads counts AppendScans calls.
type fakeScans struct {
	mu    sync.Mutex
	scans map[int64]*fakeScan
	reads atomic.Int64
}

type fakeScan struct {
	fp          ScanFootprint
	seed, speed float64
	processed   int
	inactive    bool
}

// newFakeScans makes an empty source and attaches it to p.
func newFakeScans(p *Pool) *fakeScans {
	f := &fakeScans{scans: map[int64]*fakeScan{}}
	p.SetScanSource(f)
	return f
}

func (f *fakeScans) register(id int64, fp ScanFootprint, seed float64) {
	f.mu.Lock()
	f.scans[id] = &fakeScan{fp: fp, seed: seed}
	f.mu.Unlock()
}

func (f *fakeScans) update(id int64, processed int, speed float64) {
	f.mu.Lock()
	if s := f.scans[id]; s != nil {
		s.processed, s.speed = processed, speed
	}
	f.mu.Unlock()
}

func (f *fakeScans) setActive(id int64, active bool) {
	f.mu.Lock()
	if s := f.scans[id]; s != nil {
		s.inactive = !active
	}
	f.mu.Unlock()
}

func (f *fakeScans) unregister(id int64) {
	f.mu.Lock()
	delete(f.scans, id)
	f.mu.Unlock()
}

func (f *fakeScans) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.scans)
}

func (f *fakeScans) AppendScans(dst []ScanState) []ScanState {
	f.reads.Add(1)
	f.mu.Lock()
	for _, s := range f.scans {
		if s.inactive {
			continue
		}
		speed := s.speed
		if speed <= 0 {
			speed = s.seed
		}
		dst = append(dst, ScanState{Footprint: s.fp, Processed: s.processed, Speed: speed})
	}
	f.mu.Unlock()
	return dst
}

// TestNextUseEstimate drives the estimator through its edge cases via a
// scan source, read the way victim selection reads it: stalled and backward speed samples, detached and
// rejoined scans, positions past the end of the footprint, pages outside
// every footprint, and wrap-around visit order.
func TestNextUseEstimate(t *testing.T) {
	type scan struct {
		id        int64
		fp        ScanFootprint
		seed      float64
		processed int
		speed     float64
		update    bool // apply processed/speed as a progress update
		inactive  bool
	}
	cases := []struct {
		name  string
		scans []scan
		pid   disk.PageID
		want  float64 // math.Inf(1) for "never"
	}{
		{
			name: "no scans registered",
			pid:  5, want: math.Inf(1),
		},
		{
			name:  "page ahead of one scan",
			scans: []scan{{id: 1, fp: ScanFootprint{Start: 0, End: 100, Origin: 0}, seed: 10}},
			pid:   40, want: 4, // 40 pages ahead at 10 pages/s
		},
		{
			name: "page already consumed",
			scans: []scan{{id: 1, fp: ScanFootprint{Start: 0, End: 100, Origin: 0}, seed: 10,
				update: true, processed: 50, speed: 10}},
			pid: 40, want: math.Inf(1),
		},
		{
			name:  "page outside every footprint",
			scans: []scan{{id: 1, fp: ScanFootprint{Start: 0, End: 100, Origin: 0}, seed: 10}},
			pid:   150, want: math.Inf(1),
		},
		{
			name: "stalled scan falls back to seed speed",
			scans: []scan{{id: 1, fp: ScanFootprint{Start: 0, End: 100, Origin: 0}, seed: 5,
				update: true, processed: 10, speed: 0}},
			pid: 20, want: 2, // 10 pages ahead at the 5 pages/s seed
		},
		{
			name: "speed crossing zero falls back to seed speed",
			scans: []scan{{id: 1, fp: ScanFootprint{Start: 0, End: 100, Origin: 0}, seed: 5,
				update: true, processed: 10, speed: -3}},
			pid: 20, want: 2,
		},
		{
			name: "no usable speed at all falls back to 1 page/s",
			scans: []scan{{id: 1, fp: ScanFootprint{Start: 0, End: 100, Origin: 0}, seed: 0,
				update: true, processed: 10, speed: 0}},
			pid: 20, want: 10,
		},
		{
			name: "detached scan protects nothing",
			scans: []scan{{id: 1, fp: ScanFootprint{Start: 0, End: 100, Origin: 0}, seed: 10,
				inactive: true}},
			pid: 40, want: math.Inf(1),
		},
		{
			name: "rejoined scan protects again",
			scans: []scan{
				{id: 1, fp: ScanFootprint{Start: 0, End: 100, Origin: 0}, seed: 10, inactive: true},
				{id: 2, fp: ScanFootprint{Start: 0, End: 100, Origin: 0}, seed: 10},
			},
			pid: 40, want: 4,
		},
		{
			name: "progress past EOF clamps to footprint length",
			scans: []scan{{id: 1, fp: ScanFootprint{Start: 0, End: 100, Origin: 0}, seed: 10,
				update: true, processed: 100000, speed: 10}},
			pid: 99, want: math.Inf(1),
		},
		{
			name: "negative progress clamps to zero",
			scans: []scan{{id: 1, fp: ScanFootprint{Start: 0, End: 100, Origin: 0}, seed: 10,
				update: true, processed: -7, speed: 10}},
			pid: 40, want: 4,
		},
		{
			name:  "wrap-around: page behind a mid-table origin",
			scans: []scan{{id: 1, fp: ScanFootprint{Start: 0, End: 100, Origin: 60}, seed: 10}},
			// rank of page 40 is (40-60)+100 = 80 pages ahead in visit order
			pid: 40, want: 8,
		},
		{
			name: "minimum over multiple scans wins",
			scans: []scan{
				{id: 1, fp: ScanFootprint{Start: 0, End: 100, Origin: 0}, seed: 1},
				{id: 2, fp: ScanFootprint{Start: 0, End: 100, Origin: 30}, seed: 1},
			},
			// scan 1 reaches page 40 in 40s; scan 2 in (40-30)=10s
			pid: 40, want: 10,
		},
		{
			name:  "base offset maps device pages into table space",
			scans: []scan{{id: 1, fp: ScanFootprint{Base: 1000, Start: 0, End: 100, Origin: 0}, seed: 10}},
			pid:   1040, want: 4,
		},
		{
			name:  "invalid footprint is never registered",
			scans: []scan{{id: 1, fp: ScanFootprint{Start: 10, End: 10, Origin: 10}, seed: 10}},
			pid:   10, want: math.Inf(1),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := newFakeScans(MustNewPoolPolicy(8, 1, PolicyPredictive))
			for _, s := range tc.scans {
				src.register(s.id, s.fp, s.seed)
				if s.update {
					src.update(s.id, s.processed, s.speed)
				}
				if s.inactive {
					src.setActive(s.id, false)
				}
			}
			got := nextUseEstimate(readScans(src, nil), tc.pid)
			if got != tc.want {
				t.Fatalf("estimate(%d) = %v, want %v", tc.pid, got, tc.want)
			}
		})
	}
}

// fillAndRelease makes pid resident and unpinned at Normal priority.
func fillAndRelease(t *testing.T, p *Pool, pid disk.PageID) {
	t.Helper()
	if st, _ := p.Acquire(pid); st != Miss {
		t.Fatalf("Acquire(%d) = %v, want Miss", pid, st)
	}
	if err := p.Fill(pid, []byte{byte(pid)}); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(pid, PriorityNormal); err != nil {
		t.Fatal(err)
	}
}

// TestPredictiveVictimChoice checks end-to-end that eviction follows the
// estimates: the page furthest from any scan's next use goes first, consumed
// pages go before upcoming ones, and with no scans the policy degenerates to
// release-order LRU.
func TestPredictiveVictimChoice(t *testing.T) {
	t.Run("furthest next use evicted first", func(t *testing.T) {
		pool := MustNewPoolPolicy(3, 1, PolicyPredictive)
		src := newFakeScans(pool)
		src.register(1, ScanFootprint{Start: 0, End: 30, Origin: 0}, 10)
		src.update(1, 5, 10)
		// Pages 6, 12, 25 are all upcoming; 25 is furthest.
		for _, pid := range []disk.PageID{25, 6, 12} {
			fillAndRelease(t, pool, pid)
		}
		if st, _ := pool.Acquire(9); st != Miss {
			t.Fatalf("Acquire(9) = %v, want Miss", st)
		}
		if pool.Contains(25) {
			t.Error("page 25 (furthest next use) survived eviction")
		}
		for _, pid := range []disk.PageID{6, 12} {
			if !pool.Contains(pid) {
				t.Errorf("page %d evicted ahead of page 25", pid)
			}
		}
	})

	t.Run("consumed page evicted before upcoming ones", func(t *testing.T) {
		pool := MustNewPoolPolicy(3, 1, PolicyPredictive)
		src := newFakeScans(pool)
		src.register(1, ScanFootprint{Start: 0, End: 30, Origin: 0}, 10)
		src.update(1, 10, 10)
		// Page 2 is behind the scan (never reused); 12 and 28 are ahead.
		for _, pid := range []disk.PageID{28, 2, 12} {
			fillAndRelease(t, pool, pid)
		}
		if st, _ := pool.Acquire(9); st != Miss {
			t.Fatalf("Acquire(9) = %v, want Miss", st)
		}
		if pool.Contains(2) {
			t.Error("consumed page 2 survived while upcoming pages were resident")
		}
		if !pool.Contains(28) || !pool.Contains(12) {
			t.Error("an upcoming page was evicted ahead of the consumed one")
		}
	})

	t.Run("no scans degenerates to release-order LRU", func(t *testing.T) {
		pool := MustNewPoolPolicy(3, 1, PolicyPredictive)
		for _, pid := range []disk.PageID{7, 3, 5} {
			fillAndRelease(t, pool, pid)
		}
		if st, _ := pool.Acquire(9); st != Miss {
			t.Fatalf("Acquire(9) = %v, want Miss", st)
		}
		if pool.Contains(7) {
			t.Error("least recently released page 7 survived eviction")
		}
		if !pool.Contains(3) || !pool.Contains(5) {
			t.Error("more recently released page evicted first")
		}
	})

	t.Run("unregister drops protection", func(t *testing.T) {
		pool := MustNewPoolPolicy(2, 1, PolicyPredictive)
		src := newFakeScans(pool)
		src.register(1, ScanFootprint{Start: 0, End: 30, Origin: 0}, 10)
		for _, pid := range []disk.PageID{20, 4} {
			fillAndRelease(t, pool, pid)
		}
		src.unregister(1)
		if n := len(readScans(src, nil)); n != 0 {
			t.Fatalf("the pool reads %d scans after unregister", n)
		}
		// Without the scan both pages estimate +Inf; release order decides.
		if st, _ := pool.Acquire(9); st != Miss {
			t.Fatalf("Acquire(9) = %v, want Miss", st)
		}
		if pool.Contains(20) {
			t.Error("earliest released page 20 survived after unregister")
		}
	})
}
