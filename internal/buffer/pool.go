// Package buffer implements the page buffer pool that concurrent scans
// share.
//
// The pool mirrors the interface the paper assumes of DB2's bufferpool: pages
// are fetched and pinned, processed, and then *released with a priority*. The
// priority is a hint to the replacement policy about how soon the page will
// be needed again; the scan sharing manager exploits it by releasing a group
// leader's pages at high priority (the rest of its group is right behind and
// will re-read them) and a trailer's pages at low priority (nobody follows
// closely, so they are the cheapest pages to victimize).
//
// Replacement is pluggable behind a per-shard policy interface. The default
// is the paper's "priority, then LRU": the victim is the least recently
// released unpinned page of the lowest occupied priority level. With every
// page released at the same priority this degenerates to plain LRU, which is
// the paper's baseline. The alternative PolicyPredictive replaces the hint
// scheme with per-page time-to-next-use estimates computed from the live
// scans a ScanSource reports (see predictive.go).
//
// The pool is lock-striped: capacity is partitioned across N shards and a
// page id hashes to exactly one shard, which owns the page's frame, its
// position on the priority/LRU lists, and the counters it contributes to.
// Replacement is local to the shard (the victim search never crosses a shard
// boundary), so two scans touching pages in different shards never contend
// on a mutex. Aggregate Stats() sums exact per-shard snapshots. With a
// single shard the pool is byte-for-byte the classic global-mutex design,
// which is what the deterministic replay harness relies on.
//
// The priority-LRU pool deliberately knows nothing about scans, groups, or
// the sharing manager — the paper's design point is that the caching system
// can remain a black box, with the mechanism confined to the scan operators.
// Only the predictive policy looks at scans, through the narrow ScanSource.
package buffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"scanshare/internal/disk"
	"scanshare/internal/trace"
)

// Priority is a page release priority hint. Higher values survive longer in
// the pool.
type Priority int

// Priority levels, lowest (first victimized) to highest (last victimized).
const (
	// PriorityEvict marks a page as immediately reusable; trailer scans
	// release pages at this level.
	PriorityEvict Priority = iota
	// PriorityLow is for pages unlikely to be needed again soon.
	PriorityLow
	// PriorityNormal is the default for scans outside any sharing group;
	// the baseline engine releases every page at this level.
	PriorityNormal
	// PriorityHigh is for pages needed again soon; group leaders release
	// at this level because their group mates are right behind them.
	PriorityHigh

	numPriorities
)

// NumPriorities is the number of defined priority levels, for sizing
// per-priority breakdowns outside the package.
const NumPriorities = int(numPriorities)

// String returns a short human-readable name for the priority.
func (p Priority) String() string {
	switch p {
	case PriorityEvict:
		return "evict"
	case PriorityLow:
		return "low"
	case PriorityNormal:
		return "normal"
	case PriorityHigh:
		return "high"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// Valid reports whether p is one of the defined levels.
func (p Priority) Valid() bool { return p >= PriorityEvict && p < numPriorities }

// Status is the outcome of an Acquire call.
type Status int

const (
	// Hit: the page was in the pool; it is now pinned and Data is valid.
	Hit Status = iota
	// Miss: the page was not in the pool; a frame has been reserved and
	// pinned for the caller, who must perform the physical read and call
	// Fill (or Abort on failure).
	Miss
	// Busy: another caller is currently reading this page from disk, or
	// the page's shard is full but an in-flight read holds a frame that
	// will soon become evictable. The caller should wait a little and
	// retry; this models waiting on an in-flight I/O.
	Busy
	// AllPinned: the page's shard is full, every frame in it is pinned by
	// an active caller, and no read is in flight there that could free
	// one. Retrying on an I/O timescale is pointless — a frame only frees
	// when some caller releases — so callers back off for longer (or
	// fail) instead of spinning. Err returns ErrAllPinned for this status.
	AllPinned
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Busy:
		return "busy"
	case AllPinned:
		return "all-pinned"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Err returns the sentinel error corresponding to a failure status:
// ErrAllPinned for AllPinned, nil for every other status. It lets callers
// use errors.Is on an Acquire outcome they choose to surface as an error.
func (s Status) Err() error {
	if s == AllPinned {
		return ErrAllPinned
	}
	return nil
}

// Stats is a snapshot of the pool counters. For a sharded pool it is the sum
// of exact per-shard snapshots (each shard's counters are mutated under that
// shard's mutex, so every summand is internally consistent).
type Stats struct {
	LogicalReads  int64 // Acquire calls that returned Hit or Miss, plus optimistic hits
	Hits          int64 // includes OptHits: every hit, locked or lock-free
	Misses        int64
	Aborts        int64 // misses whose physical read failed (Abort), never delivered
	Fills         int64 // misses completed by Fill
	BusyRetries   int64 // Acquire calls that returned Busy
	AllPinned     int64 // Acquire calls that returned AllPinned
	Evictions     int64
	EvictionsByPr [numPriorities]int64
	// Optimistic read-path counters (always zero under map translation).
	// OptHits is the lock-free subset of Hits; OptRetries counts validation
	// failures that re-ran the optimistic loop; OptFallbacks counts
	// ReadOptimistic calls that gave up and sent the caller to Acquire.
	OptHits      int64
	OptRetries   int64
	OptFallbacks int64
}

// Add accumulates o into s, for aggregating per-shard snapshots.
func (s *Stats) Add(o Stats) {
	s.LogicalReads += o.LogicalReads
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Aborts += o.Aborts
	s.Fills += o.Fills
	s.BusyRetries += o.BusyRetries
	s.AllPinned += o.AllPinned
	s.Evictions += o.Evictions
	for i := range s.EvictionsByPr {
		s.EvictionsByPr[i] += o.EvictionsByPr[i]
	}
	s.OptHits += o.OptHits
	s.OptRetries += o.OptRetries
	s.OptFallbacks += o.OptFallbacks
}

// PagesDelivered returns the number of Acquire calls that actually put page
// data in the caller's hands: hits plus misses, minus the misses whose
// physical read failed and was aborted. The accounting invariant
//
//	Hits + Misses - Aborts == PagesDelivered
//
// holds by construction here and is asserted against independent per-caller
// counts in the chaos suite.
func (s Stats) PagesDelivered() int64 {
	return s.Hits + s.Misses - s.Aborts
}

// HitRatio returns the fraction of delivered pages served from the pool.
// Aborted misses are excluded from the denominator: a miss whose read failed
// delivered nothing, so counting it would understate locality under fault
// injection.
func (s Stats) HitRatio() float64 {
	delivered := s.LogicalReads - s.Aborts
	if delivered <= 0 {
		return 0
	}
	return float64(s.Hits) / float64(delivered)
}

// ErrAllPinned is the sentinel for the AllPinned acquire status: the page's
// shard is full of pinned frames with no in-flight read that could free one.
// Status.Err exposes it for errors.Is.
var ErrAllPinned = errors.New("buffer: all frames pinned")

type frameState int

const (
	framePending frameState = iota // reserved; disk read in flight
	frameValid
	// frameFree marks a frame sitting on its shard's freelist between
	// occupants. Both translations draw every frame from that arena, so a
	// steady-state miss reuses an evicted frame instead of allocating one.
	frameFree
)

type frame struct {
	pid   disk.PageID
	data  []byte
	pins  int
	state frameState
	prio  Priority
	// prev and next link the frame into its replacement policy's frameList
	// while it is unpinned and valid; both are nil while it is pinned,
	// pending or free (see listed).
	prev, next *frame

	// version and content implement the optimistic latch under array
	// translation (see translation.go). version is even while the frame is
	// settled and odd while in transition; every identity change is fenced
	// by bumps on both sides, under the shard mutex. content is the
	// immutable (pid, data) cell optimistic readers validate against. Both
	// stay zero under map translation.
	version atomic.Uint64
	content atomic.Pointer[pageContent]
	// touched is the optimistic read path's recency feedback: a validated
	// ReadOptimistic sets it (one uncontended atomic store, no lock, no
	// policy churn) and the priority-LRU victim walk consumes it as a CLOCK
	// second chance, so a hot set served entirely lock-free is not the first
	// thing evicted. Release clears it (a release refreshes recency by
	// itself) and reserve clears any stale bit a racing reader stored on a
	// recycled frame. Never set under map translation, which keeps the
	// classic replay goldens byte-identical.
	touched atomic.Bool
}

// listed reports whether f is on a replacement list, i.e. held by the policy.
func (f *frame) listed() bool { return f.next != nil }

// shard is one lock-striped partition of the pool: a fixed slice of the
// total capacity with its own frame table, priority/LRU lists, and counters,
// all guarded by its own mutex. A page id maps to exactly one shard, so
// every operation on a page locks only that shard.
type shard struct {
	mu       sync.Mutex
	capacity int
	// frames is the classic map translation table, used for lookup only
	// (the frames themselves come from all/free); nil under array
	// translation, where the shared xlate array plus the overflow map play
	// its role. Every mode branch in this file keys off `s.frames != nil`
	// so the map path makes the same map operations, in the same order, as
	// the pre-array code (the replay goldens pin the decisions that follow).
	frames map[disk.PageID]*frame
	// xlate is the pool-wide array translation table (nil under map
	// translation). Stores to entries owned by this shard happen under mu;
	// loads are lock-free (ReadOptimistic).
	xlate *translation
	// overflow tracks resident pages whose ids the flat array rejects
	// (negative, or past MaxTranslationPages); normally empty. Array mode
	// only.
	overflow map[disk.PageID]*frame
	// all/free preallocate the shard's frames under both translations, so
	// eviction recycles real frame memory and a steady-state miss allocates
	// nothing (the array version protocol also needs stable frame
	// identities to fence). free is a LIFO stack.
	all  []*frame
	free []*frame
	// Optimistic read-path counters, updated without mu (the fast path
	// holds no lock); folded into Stats snapshots.
	optHits      atomic.Int64
	optRetries   atomic.Int64
	optFallbacks atomic.Int64
	// evictHook, when set (tests only, before any concurrency starts), runs
	// under mu after a victim is fully unlinked and recycled; the
	// linearizability harness uses it to timestamp retirements.
	evictHook func(pid disk.PageID)
	// policy orders the unpinned frames and picks eviction victims; every
	// call into it happens under mu. The default is the priority-LRU of
	// the paper, preserved operation-for-operation by lruPolicy.
	policy replacementPolicy
	// pending counts frames in framePending state (reads in flight); it
	// lets a full-shard Acquire distinguish "wait for I/O" (Busy) from
	// "every frame pinned by a caller" (AllPinned).
	pending int
	stats   Stats
	// resident mirrors occupiedLocked() so Len() can sum shard occupancy
	// without taking any lock (the -http introspection endpoint polls it
	// while benchmarks run).
	resident atomic.Int64
	// tracer points at the pool-wide tracer slot.
	tracer *atomic.Pointer[trace.Tracer]
}

// Pool is a fixed-capacity page cache with priority-aware replacement,
// lock-striped across one or more shards. It is safe for concurrent use.
type Pool struct {
	capacity    int
	policy      string // canonical replacement policy name
	translation string // canonical translation kind name
	shards      []*shard
	// xlate is the shared array translation table; nil under map
	// translation (which also disables the optimistic read path).
	xlate *translation
	// tracer, when set, receives an eviction event per victimized frame.
	// Emission is non-blocking, so holding a shard lock across it is fine.
	tracer atomic.Pointer[trace.Tracer]
}

// SetTracer attaches tr (may be nil to detach) as the pool's observability
// journal; evictions emit a trace event per victim with the priority the
// page was released at.
func (p *Pool) SetTracer(tr *trace.Tracer) {
	p.tracer.Store(tr)
}

// NewPool creates a single-shard pool with room for capacity pages. A
// single-shard pool behaves exactly like the classic global-mutex design —
// the deterministic replays (realtime.KernelEnv) and the golden-timeline
// tests depend on that.
func NewPool(capacity int) (*Pool, error) {
	return NewPoolShards(capacity, 1)
}

// NewPoolShards creates a pool with room for capacity pages striped across
// shards partitions. Capacity is split as evenly as possible (the first
// capacity mod shards shards get one extra frame); every shard must get at
// least one frame, so shards cannot exceed capacity. Eviction is local to a
// shard, so with many shards a hot shard can evict while a cold shard has
// idle frames — that is the price of lock-freedom between partitions, and
// why shard counts should stay well below capacity (see CONCURRENCY.md).
func NewPoolShards(capacity, shards int) (*Pool, error) {
	return NewPoolPolicy(capacity, shards, PolicyLRU)
}

// NewPoolPolicy creates a pool with the given capacity, shard count, and
// replacement policy name ("" selects the default priority-LRU; see
// Policies). Capacity and shard constraints are those of NewPoolShards.
func NewPoolPolicy(capacity, shards int, policy string) (*Pool, error) {
	if shards <= 0 {
		// PoolOptions treats a zero shard count as "default to one"; the
		// positional constructors keep their stricter contract.
		return nil, fmt.Errorf("buffer: non-positive shard count %d", shards)
	}
	return NewPoolOpts(PoolOptions{Capacity: capacity, Shards: shards, Policy: policy})
}

// PoolOptions configures NewPoolOpts. The zero value of every field except
// Capacity selects the default: one shard, priority-LRU replacement, map
// translation.
type PoolOptions struct {
	// Capacity is the total frame count, split across shards; required.
	Capacity int
	// Shards is the lock-stripe count (0 means 1); must not exceed
	// Capacity.
	Shards int
	// Policy is the replacement policy name ("" means priority-LRU; see
	// Policies).
	Policy string
	// Translation selects the page-translation structure ("" means the
	// classic per-shard map; see Translations). TranslationArray enables
	// the optimistic lock-free read path (ReadOptimistic).
	Translation string
	// TranslationPages pre-grows array-translation coverage to this many
	// page ids (e.g. the table catalog's total page count) so steady-state
	// misses never take the growth lock; coverage still grows on demand
	// beyond it. Ignored under map translation.
	TranslationPages int
}

// NewPoolOpts creates a pool from o; it is the full-width constructor the
// NewPool/NewPoolShards/NewPoolPolicy wrappers delegate to.
func NewPoolOpts(o PoolOptions) (*Pool, error) {
	capacity, shards := o.Capacity, o.Shards
	if shards == 0 {
		shards = 1
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("buffer: non-positive capacity %d", capacity)
	}
	if shards <= 0 {
		return nil, fmt.Errorf("buffer: non-positive shard count %d", shards)
	}
	if shards > capacity {
		return nil, fmt.Errorf("buffer: %d shards exceed capacity %d (every shard needs a frame)", shards, capacity)
	}
	canonical, err := NormalizePolicy(o.Policy)
	if err != nil {
		return nil, err
	}
	xkind, err := NormalizeTranslation(o.Translation)
	if err != nil {
		return nil, err
	}
	if o.TranslationPages < 0 {
		return nil, fmt.Errorf("buffer: negative translation pre-size %d", o.TranslationPages)
	}
	p := &Pool{capacity: capacity, policy: canonical, translation: xkind, shards: make([]*shard, shards)}
	if xkind == TranslationArray {
		p.xlate = newTranslation(o.TranslationPages)
	}
	base, extra := capacity/shards, capacity%shards
	for i := range p.shards {
		c := base
		if i < extra {
			c++
		}
		s := &shard{
			capacity: c,
			policy:   newPolicy(canonical),
			tracer:   &p.tracer,
		}
		if p.xlate == nil {
			s.frames = make(map[disk.PageID]*frame, c)
		} else {
			s.xlate = p.xlate
			s.overflow = make(map[disk.PageID]*frame)
		}
		arena := make([]frame, c)
		s.all = make([]*frame, c)
		s.free = make([]*frame, c)
		for j := range arena {
			f := &arena[j]
			f.state = frameFree
			s.all[j] = f
			// The stack pops from the end; reversing it hands out arena
			// order, first frame first.
			s.free[c-1-j] = f
		}
		p.shards[i] = s
	}
	return p, nil
}

// MustNewPoolOpts is NewPoolOpts for known-good parameters; it panics on
// error.
func MustNewPoolOpts(o PoolOptions) *Pool {
	p, err := NewPoolOpts(o)
	if err != nil {
		panic(err)
	}
	return p
}

// MustNewPool is NewPool for known-good parameters; it panics on error.
func MustNewPool(capacity int) *Pool {
	p, err := NewPool(capacity)
	if err != nil {
		panic(err)
	}
	return p
}

// MustNewPoolShards is NewPoolShards for known-good parameters; it panics on
// error.
func MustNewPoolShards(capacity, shards int) *Pool {
	p, err := NewPoolShards(capacity, shards)
	if err != nil {
		panic(err)
	}
	return p
}

// MustNewPoolPolicy is NewPoolPolicy for known-good parameters; it panics on
// error.
func MustNewPoolPolicy(capacity, shards int, policy string) *Pool {
	p, err := NewPoolPolicy(capacity, shards, policy)
	if err != nil {
		panic(err)
	}
	return p
}

// shardFor returns the shard owning pid. The single-shard case skips the
// hash so the classic pool pays nothing for the striping machinery; the
// multi-shard case runs the page id through a 64-bit finalizer (splitmix64's
// mixer) so that sequential page ids — the common case for table scans —
// spread uniformly instead of striping by low bits.
func (p *Pool) shardFor(pid disk.PageID) *shard {
	return p.shards[p.shardIndex(pid)]
}

// shardIndex returns the index of the shard owning pid; the differential
// model tests use it to route reference-model operations the same way.
func (p *Pool) shardIndex(pid disk.PageID) int {
	if len(p.shards) == 1 {
		return 0
	}
	x := uint64(pid)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(len(p.shards)))
}

// Capacity returns the pool's total frame count across all shards.
func (p *Pool) Capacity() int { return p.capacity }

// NumShards returns the number of lock-striped partitions.
func (p *Pool) NumShards() int { return len(p.shards) }

// Len returns the number of resident (valid or pending) pages. It sums
// per-shard atomic occupancy counters and takes no locks, so introspection
// endpoints can poll it without perturbing the hot path.
func (p *Pool) Len() int {
	n := int64(0)
	for _, s := range p.shards {
		n += s.resident.Load()
	}
	return int(n)
}

// ShardOccupancy returns the number of resident (valid or pending) pages in
// each shard, in shard order. Like Len it reads the per-shard atomic
// occupancy counters and takes no locks, so the telemetry sampler can poll
// occupancy skew mid-run without perturbing the hot path.
func (p *Pool) ShardOccupancy() []int {
	out := make([]int, len(p.shards))
	for i, s := range p.shards {
		out[i] = int(s.resident.Load())
	}
	return out
}

// lookupLocked resolves pid to its resident frame, or nil. Under map
// translation it is the classic map probe; under array translation it loads
// the flat-array entry (or, for out-of-range ids, the overflow map).
func (s *shard) lookupLocked(pid disk.PageID) *frame {
	if s.frames != nil {
		return s.frames[pid]
	}
	if e := s.xlate.entry(pid); e != nil {
		return e.Load()
	}
	if len(s.overflow) != 0 {
		return s.overflow[pid]
	}
	return nil
}

// occupiedLocked returns the number of resident (valid or pending) frames.
func (s *shard) occupiedLocked() int {
	return len(s.all) - len(s.free)
}

// reserveLocked takes a frame off the freelist and links it, pending and
// pinned, for pid; the caller has verified a frame is available. Map
// translation then enters it in the frame map, the one map insert the
// classic pool made per miss. Array translation moves its version even→odd
// (in transition) BEFORE publishing it in the translation entry, and grows
// array coverage on demand — out-of-range ids land in the overflow map and
// are simply never optimistically readable.
func (s *shard) reserveLocked(pid disk.PageID) *frame {
	n := len(s.free) - 1
	f := s.free[n]
	s.free[n] = nil
	s.free = s.free[:n]
	f.pid = pid
	f.pins = 1
	f.state = framePending
	if s.frames != nil {
		s.frames[pid] = f
		return f
	}
	f.touched.Store(false)
	f.version.Add(1) // even→odd: in transition until Fill or Abort settles it
	if e := s.xlate.ensure(pid); e != nil {
		e.Store(f)
	} else {
		s.overflow[pid] = f
	}
	return f
}

// unlinkLocked removes f from the translation structure (frame map, array
// entry, or overflow map). Array mode: the caller must have made f's
// version odd first, so an optimistic reader holding a stale entry load
// fails validation rather than trusting a dangling frame.
func (s *shard) unlinkLocked(f *frame) {
	if s.frames != nil {
		delete(s.frames, f.pid)
		return
	}
	if e := s.xlate.entry(f.pid); e != nil && e.Load() == f {
		e.Store(nil)
	} else {
		delete(s.overflow, f.pid)
	}
}

// recycleLocked scrubs an unlinked frame and returns it to the freelist;
// evict and abort both end here, under either translation. Under array
// translation the scrub is fenced: if the frame was settled (even version:
// an evicted valid page) the first bump moves it odd before content is
// cleared; an aborted pending frame is already odd. The final bump settles
// the version even for the next occupant — net effect: every occupancy
// changes the version, so equality validation is ABA-proof even across
// wraparound.
func (s *shard) recycleLocked(f *frame) {
	fenced := s.frames == nil
	if fenced {
		if f.version.Load()&1 == 0 {
			f.version.Add(1)
		}
		f.content.Store(nil)
	}
	f.data = nil
	f.pid = 0
	f.prio = 0
	f.state = frameFree
	if fenced {
		f.version.Add(1)
	}
	s.free = append(s.free, f)
}

// Contains reports whether pid is resident and valid (useful in tests; a
// pending frame does not count). Only the owning shard is locked.
func (p *Pool) Contains(pid disk.PageID) bool {
	s := p.shardFor(pid)
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.lookupLocked(pid)
	return f != nil && f.state == frameValid
}

// Acquire pins page pid if resident, or reserves a frame for it.
//
// On Hit, the returned data is valid and must be treated as read-only; the
// caller must eventually call Release. On Miss, the caller owns the pending
// frame: it must read the page from storage and call Fill, then eventually
// Release. On Busy, nothing is pinned; retry after a short wait.
func (p *Pool) Acquire(pid disk.PageID) (Status, []byte) {
	s := p.shardFor(pid)
	s.mu.Lock()
	defer s.mu.Unlock()

	if f := s.lookupLocked(pid); f != nil {
		if f.state == framePending {
			s.stats.BusyRetries++
			return Busy, nil
		}
		if f.pins == 0 {
			s.policy.remove(f)
		}
		f.pins++
		s.stats.LogicalReads++
		s.stats.Hits++
		return Hit, f.data
	}

	if s.occupiedLocked() >= s.capacity && !s.evictLocked() {
		if s.pending > 0 {
			// An in-flight read holds at least one frame that will be
			// filled and released shortly; waiting on an I/O timescale
			// is the right backoff.
			s.stats.BusyRetries++
			return Busy, nil
		}
		// Every frame in this shard is pinned by an active caller and
		// nothing is in flight: only a Release can free one.
		s.stats.AllPinned++
		return AllPinned, nil
	}

	s.reserveLocked(pid)
	s.resident.Add(1)
	s.pending++
	s.stats.LogicalReads++
	s.stats.Misses++
	return Miss, nil
}

// evictLocked asks the shard's policy for a victim and frees its frame. It
// reports whether a frame was freed. Accounting — the frame table, resident
// counter, eviction stats (keyed by the priority the victim was released
// at), and the trace event — is the shard's job, uniform across policies.
func (s *shard) evictLocked() bool {
	victim := s.policy.victim()
	if victim == nil {
		return false
	}
	pid := victim.pid
	// Array translation: make the version odd BEFORE the entry and content
	// change, so an optimistic reader that already loaded the frame pointer
	// cannot validate against the dying occupancy (the second bump happens
	// in recycleLocked once the frame is scrubbed).
	if s.frames == nil {
		victim.version.Add(1)
	}
	s.unlinkLocked(victim)
	s.resident.Add(-1)
	s.stats.Evictions++
	s.stats.EvictionsByPr[victim.prio]++
	s.tracer.Load().Emit(trace.Event{
		Kind: trace.KindEvict, Page: int64(pid), Prio: int8(victim.prio),
		Scan: trace.NoID, Peer: trace.NoID, Table: trace.NoID,
	})
	// Array translation: the version is already odd; recycle clears
	// content and settles it.
	s.recycleLocked(victim)
	if s.evictHook != nil {
		s.evictHook(pid)
	}
	return true
}

// Fill completes a Miss: it installs data as the content of the pending
// frame reserved by the calling Acquire. The frame stays pinned.
func (p *Pool) Fill(pid disk.PageID, data []byte) error {
	s := p.shardFor(pid)
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.lookupLocked(pid)
	if f == nil {
		return fmt.Errorf("buffer: Fill of non-resident page %d", pid)
	}
	if f.state != framePending {
		return fmt.Errorf("buffer: Fill of already-valid page %d", pid)
	}
	f.data = data
	f.state = frameValid
	s.pending--
	s.stats.Fills++
	if s.frames == nil {
		// Publish the immutable content cell, then settle the version
		// odd→even; only after this store can an optimistic read validate.
		// Coalesced misses go through here too, and the runner's flight
		// table only wakes waiters after Fill returns, so versions are
		// always settled before waiters retry.
		f.content.Store(&pageContent{pid: pid, data: data})
		f.version.Add(1)
	}
	return nil
}

// Abort releases a pending frame without filling it, e.g. after a failed
// disk read.
func (p *Pool) Abort(pid disk.PageID) error {
	s := p.shardFor(pid)
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.lookupLocked(pid)
	if f == nil || f.state != framePending {
		return fmt.Errorf("buffer: Abort of page %d that is not pending", pid)
	}
	s.unlinkLocked(f)
	// Array translation: the frame's version has been odd since
	// reserveLocked; recycling settles it even with no occupant.
	s.recycleLocked(f)
	s.resident.Add(-1)
	s.pending--
	// The reserving Acquire counted a Miss, but the page was never
	// delivered; Aborts is the correction term that keeps
	// Hits + Misses - Aborts equal to pages actually handed to callers.
	s.stats.Aborts++
	return nil
}

// Release unpins page pid, recording prio as its replacement priority. When
// the pin count reaches zero the page becomes evictable at that priority.
func (p *Pool) Release(pid disk.PageID, prio Priority) error {
	if !prio.Valid() {
		return fmt.Errorf("buffer: invalid release priority %d", prio)
	}
	s := p.shardFor(pid)
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.lookupLocked(pid)
	if f == nil {
		return fmt.Errorf("buffer: Release of non-resident page %d", pid)
	}
	if f.state != frameValid {
		return fmt.Errorf("buffer: Release of pending page %d", pid)
	}
	if f.pins <= 0 {
		return fmt.Errorf("buffer: Release of unpinned page %d", pid)
	}
	f.pins--
	f.prio = prio
	if f.pins == 0 {
		// The release itself is the recency signal (insert goes to the back
		// of its level), so any pending second chance is consumed here.
		f.touched.Store(false)
		s.policy.insert(f)
	}
	return nil
}

// ReleaseRetain unpins page pid without changing its replacement priority:
// the frame keeps whatever priority its last Release recorded. Prefetchers
// use it when they find a page already resident, where a plain Release would
// overwrite the priority the owning scan chose (e.g. demote a leader's
// high-priority page to normal just because a prefetch worker touched it).
func (p *Pool) ReleaseRetain(pid disk.PageID) error {
	s := p.shardFor(pid)
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.lookupLocked(pid)
	if f == nil {
		return fmt.Errorf("buffer: ReleaseRetain of non-resident page %d", pid)
	}
	if f.state != frameValid {
		return fmt.Errorf("buffer: ReleaseRetain of pending page %d", pid)
	}
	if f.pins <= 0 {
		return fmt.Errorf("buffer: ReleaseRetain of unpinned page %d", pid)
	}
	f.pins--
	if f.pins == 0 {
		f.touched.Store(false)
		s.policy.insert(f)
	}
	return nil
}

// Stats returns a snapshot of the pool counters: the sum of exact per-shard
// snapshots. Each shard is locked in turn, so the aggregate is a sum of
// internally-consistent shard states (not a single instantaneous cut across
// shards — concurrent operations on other shards may land between reads,
// which is the standard striped-counter tradeoff).
func (p *Pool) Stats() Stats {
	var total Stats
	for _, s := range p.shards {
		s.mu.Lock()
		total.Add(s.snapshotLocked())
		s.mu.Unlock()
	}
	return total
}

// snapshotLocked folds the lock-free optimistic counters into the shard's
// mutex-guarded counters: optimistic hits are hits (and logical reads) like
// any other, they just never took the lock. With no concurrent optimistic
// readers (every deterministic test) the fold is exact; mid-flight it is
// the usual striped-counter approximation.
func (s *shard) snapshotLocked() Stats {
	out := s.stats
	oh := s.optHits.Load()
	out.OptHits = oh
	out.OptRetries = s.optRetries.Load()
	out.OptFallbacks = s.optFallbacks.Load()
	out.Hits += oh
	out.LogicalReads += oh
	return out
}

// ShardStats returns one exact counter snapshot per shard, in shard order.
// Report plumbing uses it for the per-shard contention breakdown.
func (p *Pool) ShardStats() []Stats {
	out := make([]Stats, len(p.shards))
	for i, s := range p.shards {
		s.mu.Lock()
		out[i] = s.snapshotLocked()
		s.mu.Unlock()
	}
	return out
}

// ResetStats clears the counters but leaves the cache contents intact.
func (p *Pool) ResetStats() {
	for _, s := range p.shards {
		s.mu.Lock()
		s.stats = Stats{}
		s.optHits.Store(0)
		s.optRetries.Store(0)
		s.optFallbacks.Store(0)
		s.mu.Unlock()
	}
}

// CheckInvariants panics if internal bookkeeping is inconsistent. It exists
// for tests — the pool's own and those of concurrent layers built on top —
// as a cheap way to assert a stress run left the structure coherent. Each
// shard is checked under its own lock, then the aggregate identities.
func (p *Pool) CheckInvariants() {
	var agg Stats
	for i, s := range p.shards {
		s.mu.Lock()
		s.checkInvariantsLocked(i)
		agg.Add(s.snapshotLocked())
		s.mu.Unlock()
	}
	if delivered := agg.Hits + agg.Misses - agg.Aborts; delivered < 0 {
		panic(fmt.Sprintf("buffer: negative pages delivered (%d hits + %d misses - %d aborts)",
			agg.Hits, agg.Misses, agg.Aborts))
	}
}

func (s *shard) checkInvariantsLocked(idx int) {
	occupied := s.occupiedLocked()
	if occupied > s.capacity {
		panic(fmt.Sprintf("buffer: shard %d has %d frames resident, capacity %d", idx, occupied, s.capacity))
	}
	if got := s.resident.Load(); got != int64(occupied) {
		panic(fmt.Sprintf("buffer: shard %d resident counter %d but %d frames in table", idx, got, occupied))
	}
	if s.frames != nil {
		if len(s.frames) != occupied {
			panic(fmt.Sprintf("buffer: shard %d frame map holds %d pages but occupancy is %d", idx, len(s.frames), occupied))
		}
		for pid, f := range s.frames {
			if f.pid != pid || f.state == frameFree {
				panic(fmt.Sprintf("buffer: shard %d frame map key %d holds frame of page %d in state %d", idx, pid, f.pid, f.state))
			}
		}
	}
	s.policy.check(s, idx)
	for _, f := range s.free {
		if f.state != frameFree {
			panic(fmt.Sprintf("buffer: shard %d freelist holds page %d in state %d", idx, f.pid, f.state))
		}
	}
	pending, free := 0, 0
	for _, f := range s.all {
		if f.state == frameFree {
			free++
			if f.data != nil || f.listed() || f.prev != nil {
				panic(fmt.Sprintf("buffer: shard %d free frame keeps data or list links", idx))
			}
			if s.frames == nil && (f.version.Load()&1 != 0 || f.content.Load() != nil) {
				panic(fmt.Sprintf("buffer: shard %d freelist holds an unsettled frame", idx))
			}
			continue
		}
		pid := f.pid
		if s.lookupLocked(pid) != f {
			panic(fmt.Sprintf("buffer: page %d frame not reachable through translation", pid))
		}
		if f.pins == 0 && f.state == frameValid && !f.listed() {
			panic(fmt.Sprintf("buffer: unpinned valid page %d not on any level list", pid))
		}
		if f.state == framePending {
			pending++
		}
		if s.frames == nil {
			// The optimistic-latch protocol: version parity must track
			// settledness, and a settled valid frame's content cell must
			// agree with its identity.
			odd := f.version.Load()&1 == 1
			if (f.state == framePending) != odd {
				panic(fmt.Sprintf("buffer: page %d state %d with version parity %v", pid, f.state, odd))
			}
			if f.state == frameValid {
				c := f.content.Load()
				if c == nil || c.pid != pid {
					panic(fmt.Sprintf("buffer: valid page %d with stale or missing content cell", pid))
				}
			}
		}
	}
	if free != len(s.free) {
		panic(fmt.Sprintf("buffer: shard %d has %d free frames but %d on its freelist", idx, free, len(s.free)))
	}
	if pending != s.pending {
		panic(fmt.Sprintf("buffer: shard %d has %d pending frames resident but pending counter is %d", idx, pending, s.pending))
	}
}
