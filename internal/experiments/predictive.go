package experiments

import (
	"fmt"
	"strings"
	"time"

	"scanshare"
	"scanshare/internal/metrics"
	"scanshare/internal/workload"
)

// PredictiveRun is one engine configuration's outcome in the A8 policy A/B:
// the same seeded scan streams executed under one replacement policy and
// coordination setting.
type PredictiveRun struct {
	Label        string
	Policy       string
	Makespan     time.Duration
	Reads        int64 // physical disk reads
	Seeks        int64
	LogicalReads int64   // pages the scans processed
	HitRatio     float64 // pool hits / logical reads
	Throttles    int64
}

// PredictiveResult compares priority-LRU under grouping+throttling against
// predictive buffer management (A8) on identical seeded virtual-time
// streams.
type PredictiveResult struct {
	Scans     int
	Pages     int
	PoolPages int
	Stagger   time.Duration
	Runs      []PredictiveRun
}

// PredictivePolicyAB (A8) runs the same seeded scan streams three ways in
// virtual time: the paper's mechanism (priority-LRU pool steered by
// grouping, throttling, and priority hints), predictive buffer management
// with all coordination off (the follow-up paper's claim: position knowledge
// at the pool replaces scan cooperation), and predictive with coordination
// kept on. Each run builds a fresh engine with an identically seeded table
// and staggered full scans, so disk reads, seeks and makespan are exact and
// directly comparable. The predictive pools read their scans from the
// sharing manager, so every run is in Shared mode; "coordination off"
// disables placement, throttling and priority hints, not the manager.
func PredictivePolicyAB(p Params) (*PredictiveResult, error) {
	rows := int(8000 * p.Scale)
	// The table lands at ~rows/320 heap pages; size the pool to a quarter
	// of that so every variant runs under real eviction pressure — with the
	// pool close to table size all policies trivially converge.
	poolPages := rows / 320 / 4
	if poolPages < 12 {
		poolPages = 12
	}
	build := func(policy string, sharing scanshare.SharingConfig) (*scanshare.Engine, *scanshare.Table, error) {
		eng, err := scanshare.New(scanshare.Config{
			BufferPoolPages: poolPages,
			PoolPolicy:      policy,
			Disk:            scanshare.DiskConfig{SeriesBucket: p.BucketWidth},
			CPU:             scanshare.CPUConfig{Cores: p.Cores},
			Sharing:         sharing,
		})
		if err != nil {
			return nil, nil, err
		}
		tbl, err := loadSyntheticTable(eng, rows, p.Seed)
		return eng, tbl, err
	}

	type variant struct {
		label   string
		policy  string
		sharing scanshare.SharingConfig
	}
	base := scanshare.SharingConfig{PrefetchExtentPages: p.ExtentPages}
	uncoordinated := base
	uncoordinated.DisableThrottling = true
	uncoordinated.DisablePriorityHints = true
	uncoordinated.DisablePlacement = true
	variants := []variant{
		{"priority-lru + grouping/throttling", scanshare.PoolPolicyLRU, base},
		{"predictive, coordination off", scanshare.PoolPolicyPredictive, uncoordinated},
		{"predictive + grouping/throttling", scanshare.PoolPolicyPredictive, base},
	}

	// Calibration: one cold scan sizes the stagger interval, as in the
	// staggered-query experiments.
	eng, tbl, err := build(scanshare.PoolPolicyLRU, base)
	if err != nil {
		return nil, err
	}
	cold, err := eng.Run(scanshare.Baseline, []scanshare.Job{{Query: scanshare.NewQuery(tbl)}})
	if err != nil {
		return nil, err
	}
	res := &PredictiveResult{
		Scans: p.Streams, Pages: tbl.NumPages(), PoolPages: poolPages,
		Stagger: time.Duration(p.StaggerFrac * float64(cold.Results[0].Elapsed())),
	}

	for _, v := range variants {
		eng, tbl, err := build(v.policy, v.sharing)
		if err != nil {
			return nil, err
		}
		rep, err := eng.Run(scanshare.Shared, workload.StaggeredJobs(scanshare.NewQuery(tbl), p.Streams, res.Stagger))
		if err != nil {
			return nil, fmt.Errorf("A8 %s: %w", v.label, err)
		}
		res.Runs = append(res.Runs, PredictiveRun{
			Label:        v.label,
			Policy:       v.policy,
			Makespan:     rep.Makespan,
			Reads:        rep.Disk.Reads,
			Seeks:        rep.Disk.Seeks,
			LogicalReads: rep.Pool.LogicalReads,
			HitRatio:     rep.Pool.HitRatio(),
			Throttles:    rep.Sharing.ThrottleEvents,
		})
	}
	return res, nil
}

// loadSyntheticTable loads the deterministic synthetic table every A8
// variant scans: rows generated from seed alone, so each fresh engine holds
// byte-identical pages.
func loadSyntheticTable(eng *scanshare.Engine, rows int, seed int64) (*scanshare.Table, error) {
	schema := scanshare.MustSchema(
		scanshare.Field{Name: "id", Kind: scanshare.KindInt64},
		scanshare.Field{Name: "v", Kind: scanshare.KindFloat64},
		scanshare.Field{Name: "tag", Kind: scanshare.KindString},
	)
	// splitmix64-style generator: cheap, deterministic, dependency-free.
	state := uint64(seed)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	return eng.LoadTable("ab", schema, func(add func(scanshare.Tuple) error) error {
		var t scanshare.Tuple // add keeps nothing of it
		for i := 0; i < rows; i++ {
			t = append(t[:0],
				scanshare.Int64(int64(i)),
				scanshare.Float64(float64(next()%1000)/1000),
				scanshare.String(fmt.Sprintf("tag-%02d", next()%40)),
			)
			if err := add(t); err != nil {
				return err
			}
		}
		return nil
	})
}

// Render prints the three-way policy comparison.
func (r *PredictiveResult) Render() string {
	var b strings.Builder
	b.WriteString("A8 — replacement policy A/B: predictive buffer management vs grouping+throttling\n")
	fmt.Fprintf(&b, "%d full scans %v apart over %d pages, pool %d pages; identical seeded streams per run (virtual time)\n",
		r.Scans, r.Stagger, r.Pages, r.PoolPages)
	tbl := metrics.NewTable("configuration", "makespan", "disk reads", "seeks", "hit ratio", "throttles")
	for _, run := range r.Runs {
		tbl.AddRow(run.Label, metrics.FormatDuration(run.Makespan),
			fmt.Sprint(run.Reads), fmt.Sprint(run.Seeks),
			fmt.Sprintf("%.1f%%", 100*run.HitRatio), fmt.Sprint(run.Throttles))
	}
	b.WriteString(tbl.Render())
	return b.String()
}
