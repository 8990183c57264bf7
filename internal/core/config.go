// Package core implements the paper's primary contribution: the scan sharing
// manager (SSM) that increases buffer locality for multiple concurrent
// relational table scans through grouping and throttling.
//
// The SSM keeps track of ongoing table scans — their positions, speeds, and
// remaining work — and from that derives three kinds of decisions:
//
//   - Placement: where a newly started scan should begin reading. Joining an
//     ongoing scan's position (and wrapping around at the end of the range)
//     lets the new scan ride on pages the ongoing scan is pulling into the
//     buffer pool. When nothing is running, starting just behind the most
//     recently finished scan's position reuses whatever it left behind.
//   - Grouping and throttling: scans that are close together form groups
//     (greedily, closest pairs first, until the combined group extents would
//     exceed the buffer-pool page budget). Each group has a leader (front)
//     and a trailer (back). A leader that runs too far ahead — more than a
//     configurable number of prefetch extents — is throttled by inserting
//     waits into its location-update calls, so the group stays within a
//     buffer-pool-sized window and keeps sharing pages. Throttling is bounded
//     for fairness: a scan that has been delayed for more than a fraction
//     (80% by default) of its estimated total scan time is left alone. An
//     engine whose reads are cheap says so (ObserveReadCost), and a wait that
//     would cost more than the reads it saves is not advised; an engine that
//     waits in real time parks on a wake-up (ParkThrottled, SettleThrottle)
//     and is charged only the time it waited.
//   - Page release priorities: scans release processed pages back to the
//     buffer pool with a priority hint. A scan with group members behind it
//     releases at high priority (they will need the page in a moment); the
//     trailer releases at low priority (nobody follows closely, so its pages
//     are the cheapest to evict); scans outside any group use the default.
//
// The SSM deliberately treats both the buffer pool and the storage layout as
// black boxes: its interface to the engine is StartScan / ReportProgress /
// EndScan — everything else is optional — exactly the narrow surface the
// paper argues makes the mechanism easy to retrofit onto an existing database
// system.
package core

import (
	"fmt"
	"time"
)

// PagePriority is the SSM's buffer-release hint, translated by the scan
// operator into the buffer pool's own priority levels. Keeping a separate
// type here keeps the SSM decoupled from any particular pool implementation.
type PagePriority int

// Release-priority hints, lowest to highest retention.
const (
	// PageLow marks pages nobody will need soon (trailer scans).
	PageLow PagePriority = iota
	// PageNormal is the default for ungrouped scans.
	PageNormal
	// PageHigh marks pages that group members right behind the releasing
	// scan will need (leaders and middle members).
	PageHigh
)

// String returns the hint's name.
func (p PagePriority) String() string {
	switch p {
	case PageLow:
		return "low"
	case PageNormal:
		return "normal"
	case PageHigh:
		return "high"
	default:
		return fmt.Sprintf("PagePriority(%d)", int(p))
	}
}

// Config holds the SSM tuning knobs. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// BufferPoolPages is the page budget used as the grouping limit:
	// group extents are only allowed to sum to at most this many pages,
	// because scans further apart than the pool cannot share anyway.
	BufferPoolPages int

	// PrefetchExtentPages is the engine's prefetch unit. Scans report
	// progress at extent granularity, and the throttle threshold is
	// expressed in extents.
	PrefetchExtentPages int

	// ThrottleThresholdExtents is the leader–trailer distance, in prefetch
	// extents, beyond which the leader gets throttled. The paper uses
	// "typically less than two prefetch extents".
	ThrottleThresholdExtents int

	// MaxThrottleFraction bounds per-scan delay for fairness: once a
	// scan's accumulated inserted wait exceeds this fraction of its
	// estimated total scan time, it is not throttled again. The paper
	// uses 0.8.
	MaxThrottleFraction float64

	// MaxWaitPerUpdate caps a single inserted wait so that a leader
	// re-evaluates frequently instead of over-sleeping on a stale speed
	// estimate.
	MaxWaitPerUpdate time.Duration

	// MinSharePages is the minimum expected number of shared pages for a
	// new scan to join an ongoing scan instead of starting at the
	// beginning of its range.
	MinSharePages int

	// ResidualBackoffPages is how far behind a finished scan's last
	// position a new scan starts when there are no active scans to join,
	// approximating "several pages before the last scan's location,
	// depending on how many pages we expect to be left in the bufferpool".
	ResidualBackoffPages int

	// DefaultSpeedPagesPerSec seeds a scan's speed estimate when the
	// caller provides no duration estimate and no progress has been
	// observed yet.
	DefaultSpeedPagesPerSec float64

	// Throttling enables leader speed control. Disabled in the paper's
	// baseline and in the A1 ablation.
	Throttling bool

	// PriorityHints enables leader/trailer buffer release priorities;
	// when disabled every release is PageNormal (A2 ablation).
	PriorityHints bool

	// Placement enables smart start-location selection (joining ongoing
	// scans, residual reuse); when disabled every scan starts at the
	// beginning of its range (A3 ablation).
	Placement bool

	// AdaptiveReporting lets the SSM stretch the progress-report interval
	// of scans that currently have nobody to coordinate with (no other
	// active scan on their table) to several extents, cutting call
	// overhead at the cost of staler placement information — the
	// "more adaptive schemas" the authors name as future work. Off by
	// default: the prototype reported at fixed extent boundaries.
	AdaptiveReporting bool

	// OnEvent, when set, receives every SSM decision (placements, scan
	// ends, throttles, fairness exemptions) for tracing. Events are
	// delivered in decision order after the manager's state lock is
	// released, so the callback may synchronize with other goroutines;
	// it must still be fast and must not call back into the manager.
	OnEvent func(Event)

	// EstimatePlacement switches the placement policy from the shipped
	// heuristic (trail/join/residual in preference order) to the
	// sharing-potential estimator: expected physical reads are computed
	// for every interesting start location (the follow-up paper's
	// calculateReads over scan trajectories and envelopes) and the
	// cheapest wins. Ignored when Placement is false.
	EstimatePlacement bool
}

// DefaultConfig returns the configuration used throughout the experiments
// for a buffer pool of the given page capacity.
func DefaultConfig(bufferPoolPages int) Config {
	return Config{
		BufferPoolPages:          bufferPoolPages,
		PrefetchExtentPages:      16,
		ThrottleThresholdExtents: 2,
		MaxThrottleFraction:      0.8,
		MaxWaitPerUpdate:         250 * time.Millisecond,
		MinSharePages:            32,
		ResidualBackoffPages:     bufferPoolPages / 4,
		DefaultSpeedPagesPerSec:  1000,
		Throttling:               true,
		PriorityHints:            true,
		Placement:                true,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.BufferPoolPages <= 0 {
		return fmt.Errorf("core: BufferPoolPages must be positive, got %d", c.BufferPoolPages)
	}
	if c.PrefetchExtentPages <= 0 {
		return fmt.Errorf("core: PrefetchExtentPages must be positive, got %d", c.PrefetchExtentPages)
	}
	if c.ThrottleThresholdExtents <= 0 {
		return fmt.Errorf("core: ThrottleThresholdExtents must be positive, got %d", c.ThrottleThresholdExtents)
	}
	if c.MaxThrottleFraction < 0 || c.MaxThrottleFraction > 1 {
		return fmt.Errorf("core: MaxThrottleFraction must be in [0,1], got %g", c.MaxThrottleFraction)
	}
	if c.MaxWaitPerUpdate <= 0 {
		return fmt.Errorf("core: MaxWaitPerUpdate must be positive, got %v", c.MaxWaitPerUpdate)
	}
	if c.MinSharePages < 0 {
		return fmt.Errorf("core: MinSharePages must be non-negative, got %d", c.MinSharePages)
	}
	if c.ResidualBackoffPages < 0 {
		return fmt.Errorf("core: ResidualBackoffPages must be non-negative, got %d", c.ResidualBackoffPages)
	}
	if c.DefaultSpeedPagesPerSec <= 0 {
		return fmt.Errorf("core: DefaultSpeedPagesPerSec must be positive, got %g", c.DefaultSpeedPagesPerSec)
	}
	return nil
}

// throttleThresholdPages returns the leader–trailer distance in pages beyond
// which throttling starts.
func (c Config) throttleThresholdPages() int {
	return c.ThrottleThresholdExtents * c.PrefetchExtentPages
}
