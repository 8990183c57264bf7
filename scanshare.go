// Package scanshare is a storage engine testbed that reproduces the
// mechanism of "Increasing Buffer-Locality for Multiple Relational Table
// Scans through Grouping and Throttling" (ICDE 2007): a scan sharing manager
// that groups concurrent table scans by position, throttles group leaders
// that run too far ahead, prioritizes buffer-pool pages by leader/trailer
// status, and places newly starting scans where they can ride on pages other
// scans are already pulling in.
//
// The package offers a small, self-contained engine: heap tables over a
// simulated disk, a priority-aware buffer pool, a volcano-style executor,
// and a deterministic virtual-time kernel, so that the effect of scan
// sharing on physical reads, disk seeks, and end-to-end times can be
// measured reproducibly. The same scan sharing manager
// (internal/core) is engine-agnostic: it only consumes
// start/progress/end calls and emits wait and priority advice, so it can be
// lifted onto a real storage engine unchanged.
//
// # Quick start
//
//	eng, _ := scanshare.New(scanshare.Config{BufferPoolPages: 1000})
//	tbl, _ := eng.LoadTable("lineitem", schema, loadRows)
//	q := scanshare.NewQuery(tbl).Where(pred, "l_discount").Sum("l_extendedprice")
//	report, _ := eng.Run(scanshare.Shared, []scanshare.Job{
//		{Query: q},
//		{Query: q, Start: 10 * time.Second},
//	})
//	fmt.Println(report.Summary())
//
// Running the same jobs with scanshare.Baseline gives the vanilla engine for
// comparison; every experiment in the paper reduces to such a pair of runs.
//
// # Loading
//
// LoadTable's add function encodes each tuple into the table's pages and
// keeps nothing of it once it returns, so a loader may fill one Tuple per
// table and pass it for every row. Varchar strings are the one thing kept:
// the column statistics hold them by reference, which is safe because Go
// strings are immutable.
package scanshare

import (
	"time"

	"scanshare/internal/buffer"
	"scanshare/internal/core"
	"scanshare/internal/exec"
	"scanshare/internal/record"
)

// Buffer pool replacement policy names, for Config.PoolPolicy and
// PoolConfig.Policy.
const (
	// PoolPolicyLRU is the paper's priority-LRU replacement (default).
	PoolPolicyLRU = buffer.PolicyLRU
	// PoolPolicyPredictive is predictive buffer management: the victim is
	// the frame with the largest estimated time to next use, computed
	// from the positions and speeds of the scans the pool's sharing
	// manager tracks.
	PoolPolicyPredictive = buffer.PolicyPredictive
)

// Buffer pool page-translation kinds, for Config.PoolTranslation and
// PoolConfig.Translation.
const (
	// PoolTranslationMap is the classic mutex-guarded per-shard page map
	// (default).
	PoolTranslationMap = buffer.TranslationMap
	// PoolTranslationArray is the flat array translation table with
	// versioned frames: read-mostly hits are served lock-free via an
	// optimistic validation protocol, falling back to the locked path on
	// contention.
	PoolTranslationArray = buffer.TranslationArray
)

// Re-exported schema and value types. These aliases are the package's data
// model; see internal/record for the encoding.
type (
	// Field is one column of a table schema.
	Field = record.Field
	// Schema is an ordered, named, typed column list.
	Schema = record.Schema
	// Tuple is one row: values in schema order.
	Tuple = record.Tuple
	// Value is a dynamically typed field value.
	Value = record.Value
	// Kind enumerates field types.
	Kind = record.Kind
)

// Field kinds.
const (
	KindInt64   = record.KindInt64
	KindFloat64 = record.KindFloat64
	KindString  = record.KindString
	KindDate    = record.KindDate
)

// NewSchema builds a schema from fields; names must be unique and non-empty.
func NewSchema(fields ...Field) (*Schema, error) { return record.NewSchema(fields...) }

// MustSchema is NewSchema panicking on error.
func MustSchema(fields ...Field) *Schema { return record.MustSchema(fields...) }

// Int64 returns a bigint value.
func Int64(v int64) Value { return record.Int64(v) }

// Float64 returns a double value.
func Float64(v float64) Value { return record.Float64(v) }

// String returns a varchar value.
func String(v string) Value { return record.String(v) }

// Date returns a date value (days since epoch).
func Date(days int64) Value { return record.Date(days) }

// Importance is a query's priority class: it scales how much of a scan's
// time the sharing manager may spend on throttling (the paper's proposed
// priority-aware dynamic threshold).
type Importance = core.Importance

// Importance classes.
const (
	// ImportanceNormal uses the configured fairness cap unchanged.
	ImportanceNormal = core.ImportanceNormal
	// ImportanceLow marks background queries (may be throttled more).
	ImportanceLow = core.ImportanceLow
	// ImportanceHigh marks interactive queries (throttled less).
	ImportanceHigh = core.ImportanceHigh
)

// AggKind enumerates aggregate functions for Query.Aggregate.
type AggKind = exec.AggKind

// Aggregate functions.
const (
	Count = exec.AggCount
	Sum   = exec.AggSum
	Avg   = exec.AggAvg
	Min   = exec.AggMin
	Max   = exec.AggMax
)

// SharingEvent is one scan sharing manager decision (a placement, a
// throttle, a scan end), delivered to Engine.TraceSharing callbacks.
type SharingEvent = core.Event

// SharingEvent kinds.
const (
	EventScanStarted      = core.EventScanStarted
	EventScanEnded        = core.EventScanEnded
	EventThrottled        = core.EventThrottled
	EventFairnessExempted = core.EventFairnessExempted
)

// Re-exported scan sharing manager observability types, returned by
// Engine.SharingSnapshot and passed to observers.
type (
	// SharingSnapshot is a consistent view of the ongoing scans and
	// groups inside the scan sharing manager.
	SharingSnapshot = core.Snapshot
	// SharingScanInfo describes one ongoing scan.
	SharingScanInfo = core.ScanInfo
	// SharingGroupInfo describes one scan group with its leader/trailer.
	SharingGroupInfo = core.GroupInfo
)

// Mode selects how Engine.Run executes table scans.
type Mode int

const (
	// Baseline runs classic front-to-back scans with uniform page
	// priorities — the paper's "vanilla" engine.
	Baseline Mode = iota
	// Shared runs scans through the scan sharing manager: intelligent
	// placement, grouping, throttling, and priority hints.
	Shared
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Baseline:
		return "base"
	case Shared:
		return "shared"
	default:
		return "Mode(?)"
	}
}

// DiskConfig parameterizes the simulated storage device. Zero fields take
// the defaults noted on each field.
type DiskConfig struct {
	// SeekTime per non-sequential read. Default 4ms.
	SeekTime time.Duration
	// TransferPerPage per page read. Default 200µs.
	TransferPerPage time.Duration
	// PageSize in bytes. Default 8192.
	PageSize int
	// SeriesBucket is the granularity of the reads/seeks-over-time
	// series; zero disables series collection.
	SeriesBucket time.Duration
}

// CPUConfig parameterizes query processing cost. Zero fields take defaults.
type CPUConfig struct {
	// PerPageCPU per visited page. Default 20µs.
	PerPageCPU time.Duration
	// PerTupleCPU per tuple at CPU weight 1. Default 2µs.
	PerTupleCPU time.Duration
	// Cores bounds how much query CPU work can run in parallel (the
	// paper's testbeds had 4 CPUs). Zero means unlimited cores — CPU
	// work never queues.
	Cores int
}

// SharingConfig tunes the scan sharing manager. Zero fields take the
// defaults of the paper's prototype; the Disable switches turn individual
// mechanisms off for ablation studies.
type SharingConfig struct {
	// PrefetchExtentPages is the progress-report granularity. Default 16.
	PrefetchExtentPages int
	// ThrottleThresholdExtents is the leader–trailer distance (in
	// extents) that triggers throttling. Default 2.
	ThrottleThresholdExtents int
	// MaxThrottleFraction is the fairness cap on accumulated per-scan
	// delay. Default 0.8.
	MaxThrottleFraction float64
	// MaxWaitPerUpdate caps one inserted wait. Default 250ms.
	MaxWaitPerUpdate time.Duration
	// MinSharePages is the minimum expected sharing to join a scan.
	// Default 32.
	MinSharePages int
	// ResidualBackoffPages is how far behind a finished scan a new scan
	// starts on an idle table. Default BufferPoolPages/4.
	ResidualBackoffPages int

	// AdaptiveReporting stretches the progress-report interval of scans
	// with no coordination partners (the follow-up paper's "more
	// adaptive schemas" future work). Off by default.
	AdaptiveReporting bool

	// EstimatePlacement switches placement from the shipped heuristic to
	// the sharing-potential estimator: expected physical reads are
	// computed for every interesting start location and the cheapest
	// wins (the follow-up paper's calculateReads, adapted to table
	// scans).
	EstimatePlacement bool

	// DisableThrottling turns leader speed control off.
	DisableThrottling bool
	// DisablePriorityHints releases every page at normal priority.
	DisablePriorityHints bool
	// DisablePlacement starts every scan at the beginning of its range.
	DisablePlacement bool
}

// PoolConfig declares one extra named buffer pool.
type PoolConfig struct {
	// Name identifies the pool in LoadTableInPool and Report.Pools.
	Name string
	// Pages is the pool's capacity.
	Pages int
	// Shards overrides Config.PoolShards for this pool; 0 inherits it.
	Shards int
	// Policy overrides Config.PoolPolicy for this pool; "" inherits it.
	Policy string
	// Translation overrides Config.PoolTranslation for this pool; ""
	// inherits it.
	Translation string
}

// Config configures an Engine.
type Config struct {
	// BufferPoolPages is the default buffer pool's capacity in pages.
	// Required.
	BufferPoolPages int
	// Pools declares additional named buffer pools. Each pool gets its
	// own scan sharing manager (the paper: "one ISM per bufferpool");
	// scans only coordinate with scans on tables of the same pool.
	Pools []PoolConfig
	// PoolShards is the number of lock-striped partitions each buffer
	// pool is split into; capacity divides across shards and a page's
	// shard is fixed by its id. 0 or 1 keeps the single-shard pool, whose
	// operation order is fully deterministic under the virtual-time
	// kernel — raise it only for realtime runs, where it removes mutex
	// contention between concurrent scan workers. Shards cannot exceed
	// the pool's page count.
	PoolShards int
	// PoolPolicy selects the buffer pools' replacement policy:
	// PoolPolicyLRU (the paper's priority-LRU, the default when empty) or
	// PoolPolicyPredictive (predictive buffer management: the pool reads
	// the position and speed of every scan its sharing manager tracks —
	// Shared-mode and realtime scans; Baseline scans bypass the manager —
	// and the victim is the frame with the largest estimated time to next
	// use).
	PoolPolicy string
	// PoolTranslation selects the buffer pools' page-translation
	// structure: PoolTranslationMap (the classic mutex-guarded per-shard
	// map, the default when empty) or PoolTranslationArray (a flat page-id
	// → frame array with versioned optimistic latches, giving read-mostly
	// hits a lock-free fast path under RunRealtime). Deterministic replay
	// goldens assume map translation; array translation stays
	// deterministic run-to-run but takes a different (lock-free) hit path.
	PoolTranslation string
	// Disk, CPU and Sharing tune the cost models and the SSM.
	Disk    DiskConfig
	CPU     CPUConfig
	Sharing SharingConfig
	// BusyRetryDelay is the back-off before re-requesting a page whose
	// read is in flight elsewhere. Default 100µs.
	BusyRetryDelay time.Duration
}
