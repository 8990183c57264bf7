package buffer

import (
	"fmt"
	"math"

	"scanshare/internal/disk"
)

func panicf(format string, args ...any) { panic(fmt.Sprintf(format, args...)) }

// This file implements predictive buffer management (arXiv 1208.4170, "From
// Cooperative Scans to Predictive Buffer Management"): instead of steering
// replacement with leader/trailer priority hints, the policy computes each
// frame's time to next use from the footprint, position and speed of every
// live scan — the victim is the frame whose next use is furthest away
// (Belady's rule under the straight-line scan model).
//
// The pool keeps no scan state of its own: it reads the scans from a
// ScanSource at victim time, once per eviction, into a per-shard scratch
// slice, and then walks the shard's release-order list. In the engine the
// source is the pool's scan sharing manager, which tracks both facts anyway
// to place, group and throttle scans.
//
// Lock order: shard.mu → whatever the source locks. A source must never call
// into the pool.

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

// ScanState is one live scan as a ScanSource reports it.
type ScanState struct {
	Footprint ScanFootprint
	// Processed is how many pages of the footprint the scan has consumed,
	// in circular visit order from Footprint.Origin.
	Processed int
	// Speed is the scan's pages-per-second estimate; a non-positive
	// speed means unknown.
	Speed float64
}

// ScanSource tells the predictive policy which scans are live. AppendScans
// appends every live scan to dst and returns the extended slice; it is
// called with a shard lock held, so it must not call into the pool, and it
// should not allocate once dst has room. The order of the scans does not
// matter.
type ScanSource interface {
	AppendScans(dst []ScanState) []ScanState
}

// readScans fills dst from src, dropping invalid footprints and resolving
// each scan's progress into [0, footprint length] and its speed to a
// positive value: the source is advisory, and a malformed entry must not
// poison eviction.
func readScans(src ScanSource, dst []ScanState) []ScanState {
	dst = src.AppendScans(dst[:0])
	kept := dst[:0]
	for _, s := range dst {
		if !s.Footprint.valid() {
			continue
		}
		s.Processed = max(0, min(s.Processed, s.Footprint.End-s.Footprint.Start))
		if s.Speed <= 0 {
			s.Speed = defaultScanSpeed
		}
		kept = append(kept, s)
	}
	return kept
}

// nextUseEstimate returns the estimated time in seconds until some scan next
// reads device page pid: the minimum over the scans (as readScans resolved
// them) of (pages until the scan reaches pid) / (scan speed). Pages outside
// every footprint, or already consumed by every scan that covers them,
// estimate +Inf — they are the first victims. The result depends only on the
// set of scans, not their order, so a source that iterates a map cannot
// change a victim choice.
func nextUseEstimate(scans []ScanState, pid disk.PageID) float64 {
	best := math.Inf(1)
	for i := range scans {
		s := &scans[i]
		fp := &s.Footprint
		pageNo := int(int64(pid) - int64(fp.Base))
		if pageNo < fp.Start || pageNo >= fp.End {
			continue
		}
		length := fp.End - fp.Start
		// rank is the page's position in the scan's circular visit order
		// from Origin: 0 for the origin page, length-1 for the page just
		// behind it.
		rank := pageNo - fp.Origin
		if rank < 0 {
			rank += length
		}
		if rank < s.Processed {
			continue // already consumed; this scan never returns to it
		}
		if t := float64(rank-s.Processed) / s.Speed; t < best {
			best = t
		}
	}
	return best
}

// predictivePolicy is the per-shard state of predictive buffer management: a
// single release-order list (least recently released at the front) plus the
// pool's scan source. Victim selection walks the list computing next-use
// estimates and evicts the strict maximum; ties keep the earliest-released
// frame, so with no source or no live scans the policy is exactly LRU on
// release order. Release priority is recorded on the frame (it still feeds the
// per-priority eviction counters) but does not influence ordering — position
// knowledge subsumes the leader/trailer hints.
//
// victim is O(frames × scans) per eviction. Shard capacity and scan counts
// are small (tens to a few thousand frames, a handful of scans), and
// eviction already implies a physical read on the miss path, so the linear
// walk is cheap relative to the I/O it precedes.
type predictivePolicy struct {
	order frameList   // unpinned frames, least recently released first
	src   ScanSource  // nil until Pool.SetScanSource; guarded by shard.mu
	scans []ScanState // scratch, reused across victim calls
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
	p.scans = p.scans[:0]
	if p.src != nil {
		p.scans = readScans(p.src, p.scans)
	}
	var best *frame
	bestEst := math.Inf(-1)
	for f := p.order.front(); f != p.order.end(); f = f.next {
		est := nextUseEstimate(p.scans, f.pid)
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

// Policy returns the canonical name of the pool's replacement policy.
func (p *Pool) Policy() string { return p.policy }

// SetScanSource makes src the scans the predictive policy plans evictions
// by (nil detaches it). Pools of other policies ignore it and never call it.
func (p *Pool) SetScanSource(src ScanSource) {
	for _, s := range p.shards {
		s.mu.Lock()
		if pp, ok := s.policy.(*predictivePolicy); ok {
			pp.src = src
		}
		s.mu.Unlock()
	}
}
