package buffer

import (
	"errors"
	"math"
	"testing"

	"scanshare/internal/disk"
)

func TestNormalizeTranslation(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{"", TranslationMap, true},
		{TranslationMap, TranslationMap, true},
		{TranslationArray, TranslationArray, true},
		{"Array", "", false},
		{"hash", "", false},
	}
	for _, c := range cases {
		got, err := NormalizeTranslation(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("NormalizeTranslation(%q) = %q, %v; want %q, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	if got := Translations(); len(got) != 2 || got[0] != TranslationMap || got[1] != TranslationArray {
		t.Errorf("Translations() = %v", got)
	}
}

// newArrayPool builds a single-shard array-translation pool for the
// edge-case tests; the tiny capacity makes eviction deterministic.
func newArrayPool(t *testing.T, capacity int) *Pool {
	t.Helper()
	return MustNewPoolOpts(PoolOptions{Capacity: capacity, Translation: TranslationArray})
}

// fillPage drives one page through the full miss cycle and leaves it
// unpinned at prio.
func fillPage(t *testing.T, p *Pool, pid disk.PageID, prio Priority) {
	t.Helper()
	st, _ := p.Acquire(pid)
	if st != Miss {
		t.Fatalf("Acquire(%d) = %v, want miss", pid, st)
	}
	if err := p.Fill(pid, []byte{byte(pid)}); err != nil {
		t.Fatalf("Fill(%d): %v", pid, err)
	}
	if err := p.Release(pid, prio); err != nil {
		t.Fatalf("Release(%d): %v", pid, err)
	}
}

// TestTranslationGrowsOnDemand: the array starts with zero coverage and
// grows in whole chunks as misses reserve frames; an optimistic read of an
// uncovered page id is a fallback, not a crash, and becomes a lock-free hit
// once the page is resident.
func TestTranslationGrowsOnDemand(t *testing.T) {
	p := newArrayPool(t, 4)
	if got := p.xlate.covered(); got != 0 {
		t.Fatalf("fresh pool covers %d pages, want 0", got)
	}
	if _, ok := p.ReadOptimistic(7); ok {
		t.Fatal("ReadOptimistic hit on an empty pool")
	}
	fillPage(t, p, 7, PriorityNormal)
	if got := p.xlate.covered(); got != xlateChunkPages {
		t.Fatalf("after pid 7: covered %d, want one chunk (%d)", got, xlateChunkPages)
	}
	data, ok := p.ReadOptimistic(7)
	if !ok || len(data) != 1 || data[0] != 7 {
		t.Fatalf("ReadOptimistic(7) = %v, %v after fill", data, ok)
	}

	// A pid in a later chunk grows the directory without moving the old
	// chunk: page 7 stays optimistically readable through the same entry.
	far := disk.PageID(3*xlateChunkPages + 11)
	before := p.xlate.entry(7)
	fillPage(t, p, far, PriorityNormal)
	if got, want := p.xlate.covered(), 4*xlateChunkPages; got != want {
		t.Fatalf("after pid %d: covered %d, want %d", far, got, want)
	}
	if after := p.xlate.entry(7); after != before {
		t.Fatal("directory growth relocated an existing translation entry")
	}
	if _, ok := p.ReadOptimistic(7); !ok {
		t.Fatal("page 7 no longer optimistically readable after growth")
	}
	if _, ok := p.ReadOptimistic(far); !ok {
		t.Fatalf("page %d not optimistically readable after fill", far)
	}
	p.CheckInvariants()

	st := p.Stats()
	if st.OptimisticHits == 0 || st.OptimisticFallbacks == 0 {
		t.Fatalf("optimistic counters not tracking: %+v", st)
	}
}

// TestTranslationOutOfRange: negative page ids and ids at or past the array
// cap never enter the flat array — they live in the overflow map, where the
// locked path serves them with full semantics while the optimistic path
// always declines.
func TestTranslationOutOfRange(t *testing.T) {
	p := newArrayPool(t, 4)
	for _, pid := range []disk.PageID{-1, -12345, MaxTranslationPages, MaxTranslationPages + 99} {
		fillPage(t, p, pid, PriorityNormal)
		if !p.Contains(pid) {
			t.Fatalf("out-of-range page %d not resident after fill", pid)
		}
		if _, ok := p.ReadOptimistic(pid); ok {
			t.Fatalf("out-of-range page %d served optimistically", pid)
		}
		// The locked hit path still works.
		st, data := p.Acquire(pid)
		if st != Hit || data[0] != byte(pid) {
			t.Fatalf("Acquire(%d) = %v, %v; want locked hit", pid, st, data)
		}
		if err := p.Release(pid, PriorityNormal); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.xlate.covered(); got != 0 {
		t.Fatalf("out-of-range pids grew the array to %d pages", got)
	}
	p.CheckInvariants()

	// Overflow pages evict like any other: fill past capacity and check
	// nothing leaks.
	for pid := disk.PageID(0); pid < 8; pid++ {
		fillPage(t, p, pid, PriorityNormal)
	}
	if got := p.Len(); got > p.Capacity() {
		t.Fatalf("len %d exceeds capacity %d", got, p.Capacity())
	}
	p.CheckInvariants()
}

// TestOptimisticPendingFallback: a page mid-read (pending frame, odd
// version) must not be optimistically readable — the locked path knows how
// to wait on the in-flight I/O, the fast path does not.
func TestOptimisticPendingFallback(t *testing.T) {
	p := newArrayPool(t, 4)
	if st, _ := p.Acquire(3); st != Miss {
		t.Fatal("expected miss")
	}
	if _, ok := p.ReadOptimistic(3); ok {
		t.Fatal("ReadOptimistic hit a pending frame")
	}
	if err := p.Fill(3, []byte{3}); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.ReadOptimistic(3); !ok {
		t.Fatal("ReadOptimistic missed a filled frame")
	}
	st := p.Stats()
	if st.OptimisticFallbacks != 1 || st.OptimisticHits != 1 || st.OptimisticRetries != 0 {
		t.Fatalf("counters = %+v, want 1 fallback, 1 hit, 0 retries", st)
	}
}

// TestErrAllPinnedParity: a full shard of pinned frames surfaces AllPinned
// with the same classification and the same sentinel error under both
// translations.
func TestErrAllPinnedParity(t *testing.T) {
	for _, translation := range Translations() {
		t.Run(translation, func(t *testing.T) {
			p := MustNewPoolOpts(PoolOptions{Capacity: 2, Translation: translation})
			for pid := disk.PageID(0); pid < 2; pid++ {
				if st, _ := p.Acquire(pid); st != Miss {
					t.Fatalf("Acquire(%d): want miss", pid)
				}
				if err := p.Fill(pid, []byte{byte(pid)}); err != nil {
					t.Fatal(err)
				}
				// Keep the pin: the shard fills up with pinned frames.
			}
			st, _ := p.Acquire(9)
			if st != AllPinned {
				t.Fatalf("Acquire on full pinned shard = %v, want all-pinned", st)
			}
			if !errors.Is(st.Err(), ErrAllPinned) {
				t.Fatalf("Status.Err() = %v, want ErrAllPinned", st.Err())
			}
			if got := p.Stats().AllPinned; got != 1 {
				t.Fatalf("AllPinned counter = %d, want 1", got)
			}
			// With a read in flight instead, both translations classify the
			// full shard as Busy, not AllPinned.
			if err := p.Release(0, PriorityEvict); err != nil {
				t.Fatal(err)
			}
			if st, _ := p.Acquire(10); st != Miss { // evicts page 0
				t.Fatalf("Acquire(10) = %v, want miss", st)
			}
			if st, _ := p.Acquire(11); st != Busy {
				t.Fatalf("Acquire with pending read = %v, want busy", st)
			}
			p.CheckInvariants()
		})
	}
}

// TestEvictionRacesValidatingReader replays, step by step, the interleaving
// the optimistic protocol exists to defeat: a reader loads the translation
// entry and the frame's (even) version, the page is evicted and the frame
// recycled for a new occupant, and the reader then tries to validate. Both
// fence points must trip it: the version changed, and the content cell
// either cleared or carries the new occupant's pid.
func TestEvictionRacesValidatingReader(t *testing.T) {
	p := newArrayPool(t, 1)
	fillPage(t, p, 5, PriorityEvict)

	// Reader half 1: snapshot entry, frame, version — then stall.
	e := p.xlate.entry(5)
	f := e.Load()
	if f == nil {
		t.Fatal("page 5 not in the array")
	}
	v1 := f.version.Load()
	if v1&1 != 0 {
		t.Fatalf("settled frame has odd version %d", v1)
	}
	c1 := f.content.Load()
	if c1 == nil || c1.pid != 5 {
		t.Fatal("content cell missing before eviction")
	}

	// Eviction: page 9 takes the only frame (capacity 1, LIFO freelist, so
	// it is the same frame object the reader holds).
	fillPage(t, p, 9, PriorityNormal)
	if e.Load() != nil {
		t.Fatal("old entry still populated after eviction")
	}
	f2 := p.xlate.entry(9).Load()
	if f2 != f {
		t.Fatal("recycle did not reuse the frame; the race cannot be staged")
	}

	// Reader half 2: validation must fail on every fence.
	if got := f.version.Load(); got == v1 {
		t.Fatalf("version unchanged (%d) across evict+refill", got)
	}
	c2 := f.content.Load()
	if c2 == c1 {
		t.Fatal("content cell not republished for the new occupant")
	}
	if c2 == nil || c2.pid != 9 {
		t.Fatalf("new content cell carries pid %v, want 9", c2)
	}
	// The snapshot the reader already copied is still intact: eviction
	// recycles the frame, never the published cell.
	if c1.pid != 5 || c1.data[0] != 5 {
		t.Fatal("retired content cell was mutated")
	}
	// And the pool-level path agrees: the old pid falls back, the new hits.
	if _, ok := p.ReadOptimistic(5); ok {
		t.Fatal("evicted page still optimistically readable")
	}
	if data, ok := p.ReadOptimistic(9); !ok || data[0] != 9 {
		t.Fatal("new occupant not optimistically readable")
	}
	p.CheckInvariants()
}

// TestVersionWraparound: validation compares versions for equality only, so
// the protocol survives the counter overflowing — parity and inequality
// both hold across the uint64 wrap.
func TestVersionWraparound(t *testing.T) {
	p := newArrayPool(t, 1)
	fillPage(t, p, 5, PriorityEvict)
	f := p.xlate.entry(5).Load()

	// Push the settled frame to the edge of the counter (MaxUint64-1 is
	// even, so parity is preserved). Done before any concurrency, like a
	// pool that has simply lived long enough.
	f.version.Store(math.MaxUint64 - 1)
	if data, ok := p.ReadOptimistic(5); !ok || data[0] != 5 {
		t.Fatal("read failed at the pre-wrap version")
	}
	v1 := f.version.Load()

	// Evict + refill wraps the counter: evict bumps to MaxUint64 (odd,
	// in transition), recycle wraps to 0 (even, free), reserve to 1 (odd,
	// pending), fill to 2 (even, settled).
	fillPage(t, p, 9, PriorityNormal)
	if f2 := p.xlate.entry(9).Load(); f2 != f {
		t.Fatal("recycle did not reuse the frame")
	}
	if got := f.version.Load(); got != 2 {
		t.Fatalf("post-wrap version = %d, want 2", got)
	}
	if got := f.version.Load(); got == v1 {
		t.Fatal("wrap produced an equal version; stale validation would pass")
	}
	if data, ok := p.ReadOptimistic(9); !ok || data[0] != 9 {
		t.Fatal("read failed after the wrap")
	}
	p.CheckInvariants()
}

// TestMapTranslationNoOptimisticPath: under the default map translation
// ReadOptimistic declines immediately, with no side effects and no
// counters — that silence is what keeps the deterministic replay goldens
// byte-identical.
func TestMapTranslationNoOptimisticPath(t *testing.T) {
	p := MustNewPool(4)
	if got := p.Translation(); got != TranslationMap {
		t.Fatalf("Translation() = %q, want map", got)
	}
	fillPage(t, p, 3, PriorityNormal)
	if _, ok := p.ReadOptimistic(3); ok {
		t.Fatal("map pool served an optimistic read")
	}
	st := p.Stats()
	if st.OptimisticHits != 0 || st.OptimisticRetries != 0 || st.OptimisticFallbacks != 0 {
		t.Fatalf("map pool recorded optimistic counters: %+v", st)
	}
}

// TestTranslationPresize: TranslationPages pre-grows coverage so the first
// misses never take the growth lock, clamped to the array cap.
func TestTranslationPresize(t *testing.T) {
	p := MustNewPoolOpts(PoolOptions{
		Capacity: 4, Translation: TranslationArray, TranslationPages: xlateChunkPages + 1,
	})
	if got, want := p.xlate.covered(), 2*xlateChunkPages; got != want {
		t.Fatalf("pre-sized coverage %d, want %d", got, want)
	}
	// Pre-sizing is ignored under map translation.
	m := MustNewPoolOpts(PoolOptions{Capacity: 4, TranslationPages: 1 << 20})
	if m.xlate != nil {
		t.Fatal("map pool allocated a translation array")
	}
	if _, err := NewPoolOpts(PoolOptions{Capacity: 4, Translation: TranslationArray, TranslationPages: -1}); err == nil {
		t.Fatal("negative pre-size accepted")
	}
	if _, err := NewPoolOpts(PoolOptions{Capacity: 4, Translation: "radix"}); err == nil {
		t.Fatal("unknown translation accepted")
	}
}
