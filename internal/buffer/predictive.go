package buffer

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"scanshare/internal/disk"
)

func panicf(format string, args ...any) { panic(fmt.Sprintf(format, args...)) }

// This file implements predictive buffer management (arXiv 1208.4170, "From
// Cooperative Scans to Predictive Buffer Management"): instead of steering
// replacement with leader/trailer priority hints, scans register their
// footprint, position, and speed with the pool, and the policy computes each
// frame's time to next use — the victim is the frame whose next use is
// furthest away (Belady's rule under the straight-line scan model).
//
// Registration is deliberately lock-cheap: the scan table is a pool-level
// map guarded by an RWMutex that only Register/Unregister take exclusively;
// the per-report position/speed updates are atomic stores under a read lock,
// so concurrent scans never serialize on each other's progress reports.
// Victim selection snapshots the active scans once (read lock, atomic loads)
// and then walks the shard's release-order list without any shared lock.
//
// Lock order: shard.mu → scanTable.mu (read). Registration paths take only
// scanTable.mu, never a shard lock, so there is no cycle.

// defaultScanSpeed is the pages-per-second floor used when a scan has no
// usable speed estimate (unreported, stalled, or a negative sample): the
// estimator needs a positive speed to order pages by distance, and 1 page/s
// preserves the ordering by pure page distance.
const defaultScanSpeed = 1.0

// ScanFootprint describes the pages a registered scan will visit, for the
// predictive replacement policy. Pages are identified in device page space
// via Base: the scan visits device pages Base+Start … Base+End-1, starting
// at Base+Origin and wrapping circularly at End back to Start (the engine's
// scans start mid-table when the sharing manager places them there).
type ScanFootprint struct {
	// Base is the device page id of table-relative page 0, assuming the
	// table's pages are contiguous on the device (true for every store in
	// this engine).
	Base disk.PageID
	// Start and End bound the scan's range [Start, End) in table-relative
	// page numbers.
	Start, End int
	// Origin is the table-relative page the scan began at; it must lie in
	// [Start, End).
	Origin int
}

func (fp ScanFootprint) valid() bool {
	return fp.End > fp.Start && fp.Origin >= fp.Start && fp.Origin < fp.End
}

// scanReg is one registered scan. The footprint and seed speed are immutable
// after registration; position, speed, and activity are atomics so that
// UpdateScan and SetScanActive touch no mutex beyond the table's read lock.
type scanReg struct {
	fp   ScanFootprint
	seed float64 // speed fallback from the scan's a-priori estimate
	// processed is how many pages of the footprint the scan has consumed
	// (in circular visit order from Origin).
	processed atomic.Int64
	// speedBits holds the latest pages-per-second estimate as float64 bits.
	speedBits atomic.Uint64
	// inactive marks detached scans, whose estimates are unreliable; the
	// estimator skips them.
	inactive atomic.Bool
}

// scanTable is the pool-level registry of active scans, shared by every
// shard's predictive policy instance.
type scanTable struct {
	mu    sync.RWMutex
	scans map[int64]*scanReg
}

func newScanTable() *scanTable {
	return &scanTable{scans: make(map[int64]*scanReg)}
}

// scanSnap is one scan's state at victim-selection time, with the speed
// fallbacks already resolved to a positive value.
type scanSnap struct {
	fp        ScanFootprint
	processed int
	speed     float64
}

// snapshot copies the active scans into dst (reused across calls by the
// caller) under the read lock, resolving each scan's effective speed.
func (t *scanTable) snapshot(dst []scanSnap) []scanSnap {
	dst = dst[:0]
	t.mu.RLock()
	for _, r := range t.scans {
		if r.inactive.Load() {
			continue
		}
		speed := math.Float64frombits(r.speedBits.Load())
		if speed <= 0 {
			speed = r.seed
		}
		if speed <= 0 {
			speed = defaultScanSpeed
		}
		dst = append(dst, scanSnap{fp: r.fp, processed: int(r.processed.Load()), speed: speed})
	}
	t.mu.RUnlock()
	return dst
}

// nextUseEstimate returns the estimated time in seconds until some active
// scan next reads device page pid: the minimum over the registered scans of
// (pages until the scan reaches pid) / (scan speed). Pages outside every
// footprint, or already consumed by every scan that covers them, estimate
// +Inf — they are the first victims. The result depends only on the set of
// snapshots, not their order, so map-iteration nondeterminism in snapshot
// cannot change a victim choice.
func nextUseEstimate(regs []scanSnap, pid disk.PageID) float64 {
	best := math.Inf(1)
	for i := range regs {
		r := &regs[i]
		pageNo := int(int64(pid) - int64(r.fp.Base))
		if pageNo < r.fp.Start || pageNo >= r.fp.End {
			continue
		}
		length := r.fp.End - r.fp.Start
		// rank is the page's position in the scan's circular visit order
		// from Origin: 0 for the origin page, length-1 for the page just
		// behind it.
		rank := pageNo - r.fp.Origin
		if rank < 0 {
			rank += length
		}
		if rank < r.processed {
			continue // already consumed; this scan never returns to it
		}
		if t := float64(rank-r.processed) / r.speed; t < best {
			best = t
		}
	}
	return best
}

// predictivePolicy is the per-shard state of predictive buffer management: a
// single release-order list (least recently released at the front) plus the
// shared scan table. Victim selection walks the list computing next-use
// estimates and evicts the strict maximum; ties keep the earliest-released
// frame, so with no scans registered the policy is exactly LRU on release
// order. Release priority is recorded on the frame (it still feeds the
// per-priority eviction counters) but does not influence ordering — position
// knowledge subsumes the leader/trailer hints.
//
// victim is O(frames × scans) per eviction. Shard capacity and scan counts
// are small (tens to a few thousand frames, a handful of scans), and
// eviction already implies a physical read on the miss path, so the linear
// walk is cheap relative to the I/O it precedes.
type predictivePolicy struct {
	order frameList // unpinned frames, least recently released first
	scans *scanTable
	snap  []scanSnap // scratch, reused across victim calls
}

func (p *predictivePolicy) insert(f *frame) {
	p.order.pushBack(f)
}

func (p *predictivePolicy) remove(f *frame) {
	p.order.remove(f)
}

func (p *predictivePolicy) victim() *frame {
	if p.order.n == 0 {
		return nil
	}
	p.snap = p.scans.snapshot(p.snap)
	var best *frame
	bestEst := math.Inf(-1)
	for f := p.order.front(); f != p.order.end(); f = f.next {
		est := nextUseEstimate(p.snap, f.pid)
		if math.IsInf(est, 1) {
			// Nothing will ever read this frame again; the earliest
			// released such frame wins outright.
			best = f
			break
		}
		if best == nil || est > bestEst {
			best, bestEst = f, est
		}
	}
	p.order.remove(best)
	return best
}

func (p *predictivePolicy) check(s *shard, idx int) {
	name := fmt.Sprintf("shard %d predictive release list", idx)
	p.order.check(name)
	for f := p.order.front(); f != p.order.end(); f = f.next {
		checkHeld(s, f, name)
	}
}

// --- Pool-level scan registration API -------------------------------------
//
// All of these are no-ops on pools whose policy is not scan-aware, so the
// realtime runner can call them unconditionally.

// ScanAware reports whether the pool's replacement policy consumes scan
// registrations (true for the predictive policy).
func (p *Pool) ScanAware() bool { return p.scans != nil }

// Policy returns the canonical name of the pool's replacement policy.
func (p *Pool) Policy() string { return p.policy }

// RegisterScan registers scan id with footprint fp and an a-priori speed
// estimate in pages per second (0 if unknown). Invalid footprints are
// ignored: registration is advisory and a malformed one must not poison
// eviction. Re-registering an id replaces its previous registration.
func (p *Pool) RegisterScan(id int64, fp ScanFootprint, seedSpeed float64) {
	if p.scans == nil || !fp.valid() {
		return
	}
	r := &scanReg{fp: fp, seed: seedSpeed}
	p.scans.mu.Lock()
	p.scans.scans[id] = r
	p.scans.mu.Unlock()
}

// UpdateScan records scan id's progress: processed pages consumed (in
// circular visit order from its origin) and the latest speed estimate in
// pages per second. Non-positive speeds fall back to the registration seed.
// Unknown ids are ignored.
func (p *Pool) UpdateScan(id int64, processed int, speed float64) {
	if p.scans == nil {
		return
	}
	p.scans.mu.RLock()
	r := p.scans.scans[id]
	p.scans.mu.RUnlock()
	if r == nil {
		return
	}
	if processed < 0 {
		processed = 0
	}
	if max := r.fp.End - r.fp.Start; processed > max {
		processed = max
	}
	r.processed.Store(int64(processed))
	r.speedBits.Store(math.Float64bits(speed))
}

// SetScanActive marks scan id active or inactive. Detached scans (whose
// progress reports stop) are set inactive so stale positions do not protect
// pages; a rejoin reactivates them. Unknown ids are ignored.
func (p *Pool) SetScanActive(id int64, active bool) {
	if p.scans == nil {
		return
	}
	p.scans.mu.RLock()
	r := p.scans.scans[id]
	p.scans.mu.RUnlock()
	if r != nil {
		r.inactive.Store(!active)
	}
}

// UnregisterScan removes scan id's registration; its pages lose their
// protection immediately.
func (p *Pool) UnregisterScan(id int64) {
	if p.scans == nil {
		return
	}
	p.scans.mu.Lock()
	delete(p.scans.scans, id)
	p.scans.mu.Unlock()
}

// RegisteredScans returns the number of currently registered scans (zero for
// non-scan-aware pools); introspection and tests use it.
func (p *Pool) RegisteredScans() int {
	if p.scans == nil {
		return 0
	}
	p.scans.mu.RLock()
	defer p.scans.mu.RUnlock()
	return len(p.scans.scans)
}
