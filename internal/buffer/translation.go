// Array-based page translation with an optimistic lock-free read path.
//
// Under TranslationMap (the default) each shard resolves page id → frame
// through a mutex-guarded Go map, exactly as the classic pool always has;
// that mode stays byte-identical so the deterministic replay goldens hold.
// Under TranslationArray the pool instead keeps a flat array of frame
// pointers indexed by page id — the vmcache design ("Making Array-Based
// Translation Practical for Modern, High-Performance Buffer Management") —
// plus a version counter per frame, which together give read-mostly hits a
// lock-free fast path:
//
//	entry := array[pid]            // atomic load, no lock
//	f := entry.Load()              // frame pointer (nil: not resident)
//	v1 := f.version.Load()         // odd: frame in transition, fall back
//	c := f.content.Load()          // immutable (pid, data) cell
//	ok := c.pid == pid && f.version.Load() == v1
//
// The version is even while a frame is settled (free or holding a valid
// page) and odd while it is in transition (a pending read, or being
// recycled). Every mutation of a frame's identity happens under the owning
// shard's mutex and is fenced by two version bumps — odd before the frame's
// translation entry or content changes, even after — so an optimistic reader
// that raced a recycle always sees either an odd version or a changed one
// and retries. Because the (pid, data) pair lives in a single immutable cell
// published with an atomic store, a validated read can never observe a torn
// mix of two occupants, and the content load carries the happens-before
// edge that makes the whole path clean under the race detector. Validation
// compares versions for equality only, so counter wraparound is harmless:
// parity and inequality both survive uint64 overflow.
//
// The array is sized from the observed page-id space, not preallocated at
// the 8-byte-per-possible-page worst case: it grows in fixed chunks (the
// chunk directory is copy-on-write, chunks themselves never move, so lock
// free readers just load the current directory). Page ids that fall outside
// the array's hard cap — negative ids, or ids past MaxTranslationPages —
// are explicitly rejected by the fast path and tracked in a small per-shard
// overflow map instead, so the locked path serves them with identical
// semantics (including ErrAllPinned classification).
package buffer

import (
	"fmt"
	"sync"
	"sync/atomic"

	"scanshare/internal/disk"
)

// Translation table kinds, accepted by NewPoolOpts and the engine-level
// Config.PoolTranslation / scanshare-bench -pool-translation plumbing.
const (
	// TranslationMap is the classic mutex-guarded per-shard map. It is the
	// default, has no optimistic read path, and is the only mode the
	// byte-exact replay goldens run under.
	TranslationMap = "map"
	// TranslationArray is the flat array translation table with versioned
	// frames and the optimistic lock-free read path (ReadOptimistic).
	TranslationArray = "array"
)

// Translations returns the known translation table kinds, default first.
func Translations() []string { return []string{TranslationMap, TranslationArray} }

// NormalizeTranslation maps a translation kind to its canonical form (""
// means the default map translation) or reports an error naming the valid
// choices.
func NormalizeTranslation(name string) (string, error) {
	switch name {
	case "", TranslationMap:
		return TranslationMap, nil
	case TranslationArray:
		return TranslationArray, nil
	}
	return "", fmt.Errorf("buffer: unknown translation %q (valid: %q, %q)", name, TranslationMap, TranslationArray)
}

const (
	// xlateChunkPages is the translation array growth quantum: coverage
	// extends in chunks of this many page ids.
	xlateChunkPages = 4096
	// MaxTranslationPages caps the flat array. Page ids at or past the cap
	// (and negative ids) never enter the array: the optimistic path rejects
	// them and the locked path tracks them in the shard's overflow map.
	MaxTranslationPages = 1 << 22
	// optMaxRetries bounds how often an optimistic read revalidates before
	// giving up and taking the locked path; under heavy recycling of one
	// frame the pessimistic path is the productive choice.
	optMaxRetries = 8
)

// pageContent is the immutable payload cell an optimistic read validates
// against. A frame publishes a fresh cell on every Fill and clears it on
// recycle; the cell itself is never mutated, so a reader that obtained a
// pointer to it can use pid and data without further synchronization.
type pageContent struct {
	pid  disk.PageID
	data []byte
}

// xlateChunk is one fixed-size block of translation entries. Chunks never
// move once allocated; only the directory slice grows.
type xlateChunk [xlateChunkPages]atomic.Pointer[frame]

// translation is the pool-wide flat page-id → frame array, shared by all
// shards (each page id still belongs to exactly one shard; the shard's
// mutex guards all stores to its entries). Reads are lock-free: load the
// chunk directory, index twice.
type translation struct {
	// growMu serializes directory growth; it is only taken on the miss path
	// when coverage must extend, with the reserving shard's mutex held
	// (lock order: shard.mu → growMu, never the reverse).
	growMu sync.Mutex
	chunks atomic.Pointer[[]*xlateChunk]
}

// newTranslation returns a table pre-grown to cover pages page ids (clamped
// to the cap); zero means grow entirely on demand.
func newTranslation(pages int) *translation {
	t := &translation{}
	if pages > 0 {
		if pages > MaxTranslationPages {
			pages = MaxTranslationPages
		}
		t.ensure(disk.PageID(pages - 1))
	}
	return t
}

// inRange reports whether pid can ever live in the flat array.
func (t *translation) inRange(pid disk.PageID) bool {
	return pid >= 0 && pid < MaxTranslationPages
}

// entry returns the translation slot for pid, or nil when pid is out of
// range or coverage has not grown that far yet. Lock-free.
func (t *translation) entry(pid disk.PageID) *atomic.Pointer[frame] {
	if !t.inRange(pid) {
		return nil
	}
	dir := t.chunks.Load()
	if dir == nil {
		return nil
	}
	ci := int(pid) / xlateChunkPages
	if ci >= len(*dir) {
		return nil
	}
	return &(*dir)[ci][int(pid)%xlateChunkPages]
}

// ensure grows coverage to include pid and returns its slot, or nil when
// pid is out of range (the caller falls back to its overflow map). The
// directory is copy-on-write: a new slice is built with the old chunk
// pointers plus freshly allocated chunks, then published with one atomic
// store, so concurrent entry() calls always see a consistent directory and
// existing entries never relocate.
func (t *translation) ensure(pid disk.PageID) *atomic.Pointer[frame] {
	if e := t.entry(pid); e != nil {
		return e
	}
	if !t.inRange(pid) {
		return nil
	}
	t.growMu.Lock()
	defer t.growMu.Unlock()
	want := int(pid)/xlateChunkPages + 1
	old := t.chunks.Load()
	have := 0
	if old != nil {
		have = len(*old)
	}
	if want > have { // recheck under growMu: another shard may have grown
		dir := make([]*xlateChunk, want)
		if old != nil {
			copy(dir, *old)
		}
		for i := have; i < want; i++ {
			dir[i] = new(xlateChunk)
		}
		t.chunks.Store(&dir)
	}
	return t.entry(pid)
}

// covered returns the number of page ids the array currently spans. Tests
// and the reference model use it to predict fast-path reachability.
func (t *translation) covered() int {
	dir := t.chunks.Load()
	if dir == nil {
		return 0
	}
	return len(*dir) * xlateChunkPages
}

// Translation returns the pool's canonical translation kind.
func (p *Pool) Translation() string { return p.translation }

// ReadOptimistic attempts the lock-free fast path for a read-only view of
// page pid. On success the returned data is an immutable snapshot that was
// the valid content of pid at some instant during the call; the caller must
// NOT Release it — optimistic reads do not pin. The page may be evicted at
// any moment after return, but the returned slice stays intact (eviction
// recycles the frame, not the published content cell).
//
// ok is false when the fast path cannot serve the read — the pool uses map
// translation, pid is outside array coverage, the page is absent or in
// transition, or validation kept failing — and the caller should fall back
// to Acquire. Map-translation pools return immediately with no side
// effects, which keeps the deterministic replay goldens byte-identical.
func (p *Pool) ReadOptimistic(pid disk.PageID) ([]byte, bool) {
	if p.xlate == nil {
		return nil, false
	}
	s := p.shardFor(pid)
	e := p.xlate.entry(pid)
	if e == nil {
		s.optFallbacks.Add(1)
		return nil, false
	}
	for try := 0; try < optMaxRetries; try++ {
		f := e.Load()
		if f == nil {
			// Not resident: nothing to validate, miss path required.
			s.optFallbacks.Add(1)
			return nil, false
		}
		v1 := f.version.Load()
		if v1&1 != 0 {
			// In transition (read in flight, or mid-recycle): the locked
			// path knows how to wait; the fast path does not.
			s.optFallbacks.Add(1)
			return nil, false
		}
		c := f.content.Load()
		if c == nil || c.pid != pid || f.version.Load() != v1 {
			// The frame was recycled between our loads; the entry may
			// already point at a fresh frame, so re-read and try again.
			s.optRetries.Add(1)
			continue
		}
		// Feed the hit back to replacement: one relaxed store the
		// priority-LRU victim walk reads as a CLOCK second chance. A racing
		// eviction may recycle the frame between validation and this store,
		// granting the next occupant one undeserved reprieve — benign, and
		// reserveLocked clears the bit anyway. The predictive policy ignores
		// it: it reads each scan's position from its scan source, which
		// counts a page processed whether its read was optimistic or not.
		f.touched.Store(true)
		s.optHits.Add(1)
		return c.data, true
	}
	s.optFallbacks.Add(1)
	return nil, false
}
