package scanshare

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"scanshare/internal/buffer"
	"scanshare/internal/core"
	"scanshare/internal/disk"
	"scanshare/internal/metrics"
)

// QueryResult reports one job's execution: when it ran, where its time went,
// how much it read, and what it returned.
type QueryResult struct {
	Name   string
	Stream int
	Job    int

	// Start and End are relative to the beginning of the Run.
	Start, End time.Duration

	// Time decomposition, the analog of the paper's iostat readings:
	// CPU is useful work, CPUQueueWait is time waiting for a core (only
	// with Config.CPU.Cores set), IOWait is time blocked on own physical
	// reads, BusyWait is time waiting on pages being read by other scans,
	// and ThrottleWait is wait inserted by the scan sharing manager.
	CPU, CPUQueueWait, IOWait, BusyWait, ThrottleWait time.Duration

	LogicalReads  int64
	PhysicalReads int64
	TuplesRead    int64
	TuplesOut     int64

	// Rows are the query's result tuples.
	Rows []Tuple
}

// Elapsed returns the query's end-to-end time.
func (r QueryResult) Elapsed() time.Duration { return r.End - r.Start }

// DiskStats summarizes device activity during a Run.
type DiskStats struct {
	Reads     int64
	Seeks     int64
	BytesRead int64
	BusyTime  time.Duration
	QueueWait time.Duration
}

// PoolStats summarizes buffer pool activity during a Run. Its counters are
// the pool's own (buffer.Stats, promoted): LogicalReads, Hits, Misses,
// Aborts (misses whose physical read failed; they delivered no page and are
// excluded from HitRatio's denominator), Fills, BusyRetries (acquires that
// backed off on an in-flight read or a full shard), AllPinned (acquires
// that found every frame of the page's shard pinned), Evictions, and the
// lock-free read path's OptimisticHits, OptimisticRetries and
// OptimisticFallbacks (all zero under map translation).
//
// EvictionsByPriority breaks Evictions down by the priority the victim was
// released at, indexed by buffer.Priority (evict, low, normal, high). A
// healthy grouped run victimizes the trailer's evict/low levels almost
// exclusively — the paper's direct evidence that priority-tagged releases
// protect the pages the group still needs.
type PoolStats struct {
	buffer.Stats
	// Shards is the pool's lock-stripe count; PerShard breaks the counters
	// down per stripe (nil for a single-shard pool, where the aggregate is
	// the whole story).
	Shards   int
	PerShard []PoolStats
}

// EvictionBreakdown renders the per-priority eviction counts as e.g.
// "low 37, normal 5", omitting empty levels; it returns "" when nothing was
// evicted.
func (p PoolStats) EvictionBreakdown() string {
	parts := make([]string, 0, len(p.EvictionsByPriority))
	for i, n := range p.EvictionsByPriority {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s %d", buffer.Priority(i), n))
		}
	}
	return strings.Join(parts, ", ")
}

// SharingStats summarizes scan sharing manager activity (cumulative over the
// engine's lifetime; the SSM is global state like the pool).
type SharingStats = core.Stats

// DiskSample is one bucket of the reads/seeks-over-time series, offset from
// the beginning of the Run.
type DiskSample struct {
	Offset time.Duration
	Reads  int64
	Seeks  int64
	Bytes  int64
}

// Report is the outcome of one Engine.Run.
type Report struct {
	Mode     Mode
	Results  []QueryResult
	Makespan time.Duration
	Disk     DiskStats
	// Pool aggregates buffer activity across all pools; Pools breaks it
	// down per pool (the default pool is named "").
	Pool       PoolStats
	Pools      map[string]PoolStats
	Sharing    SharingStats
	DiskSeries []DiskSample
}

// PerStream returns each stream's end-to-end time: from its first job's
// start to its last job's end. Streams are returned in ascending order.
func (r *Report) PerStream() map[int]time.Duration {
	type window struct {
		start, end time.Duration
		seen       bool
	}
	windows := map[int]*window{}
	for _, q := range r.Results {
		w := windows[q.Stream]
		if w == nil {
			w = &window{start: q.Start, end: q.End, seen: true}
			windows[q.Stream] = w
			continue
		}
		if q.Start < w.start {
			w.start = q.Start
		}
		if q.End > w.end {
			w.end = q.End
		}
	}
	out := make(map[int]time.Duration, len(windows))
	for s, w := range windows {
		out[s] = w.end - w.start
	}
	return out
}

// PerQuery returns the mean elapsed time of each distinct query name.
func (r *Report) PerQuery() map[string]time.Duration {
	sums := map[string]time.Duration{}
	counts := map[string]int{}
	for _, q := range r.Results {
		sums[q.Name] += q.Elapsed()
		counts[q.Name]++
	}
	out := make(map[string]time.Duration, len(sums))
	for name, sum := range sums {
		out[name] = sum / time.Duration(counts[name])
	}
	return out
}

// TotalAcct returns the run-wide time decomposition summed over all queries.
func (r *Report) TotalAcct() (cpu, io, busy, throttle time.Duration) {
	for _, q := range r.Results {
		cpu += q.CPU
		io += q.IOWait
		busy += q.BusyWait
		throttle += q.ThrottleWait
	}
	return
}

// Summary renders a human-readable overview of the run.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s makespan=%s queries=%d\n",
		r.Mode, metrics.FormatDuration(r.Makespan), len(r.Results))
	fmt.Fprintf(&b, "disk: %d reads, %d seeks, %.1f MB\n",
		r.Disk.Reads, r.Disk.Seeks, float64(r.Disk.BytesRead)/(1<<20))
	fmt.Fprintf(&b, "pool: %.1f%% hit ratio (%d hits / %d reads)\n",
		r.Pool.HitRatio()*100, r.Pool.Hits, r.Pool.LogicalReads)
	if r.Pool.Evictions > 0 {
		fmt.Fprintf(&b, "evictions: %d (%s)\n", r.Pool.Evictions, r.Pool.EvictionBreakdown())
	}
	cpu, io, busy, throttle := r.TotalAcct()
	fmt.Fprintf(&b, "time: cpu=%s io=%s busy=%s throttle=%s\n",
		metrics.FormatDuration(cpu), metrics.FormatDuration(io),
		metrics.FormatDuration(busy), metrics.FormatDuration(throttle))

	tbl := metrics.NewTable("query", "stream", "start", "elapsed", "phys reads")
	results := append([]QueryResult(nil), r.Results...)
	sort.Slice(results, func(i, j int) bool { return results[i].Start < results[j].Start })
	for _, q := range results {
		tbl.AddRow(q.Name, fmt.Sprint(q.Stream),
			metrics.FormatDuration(q.Start), metrics.FormatDuration(q.Elapsed()),
			fmt.Sprint(q.PhysicalReads))
	}
	b.WriteString(tbl.Render())
	return b.String()
}

// diskDelta converts internal device stats.
func diskDelta(s disk.Stats) DiskStats {
	return DiskStats{
		Reads:     s.Reads,
		Seeks:     s.Seeks,
		BytesRead: s.BytesRead,
		BusyTime:  s.BusyTime,
		QueueWait: s.QueueWait,
	}
}

// poolDeltaShards converts per-shard pool snapshots (delta after-before) into
// one PoolStats: the aggregate counters plus, for multi-shard pools, the
// per-shard breakdown. A nil before means "since zero". The aggregate is
// exact: it is the sum of per-shard deltas, each taken under that shard's
// own lock.
func poolDeltaShards(after, before []buffer.Stats) PoolStats {
	out := PoolStats{Shards: len(after)}
	if len(after) > 1 {
		out.PerShard = make([]PoolStats, len(after))
	}
	for i, d := range after {
		if i < len(before) {
			d = d.Sub(before[i])
		}
		out.Add(d)
		if out.PerShard != nil {
			out.PerShard[i] = PoolStats{Stats: d, Shards: 1}
		}
	}
	return out
}
