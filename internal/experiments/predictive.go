package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"scanshare"
	"scanshare/internal/metrics"
)

// PredictiveRun is one engine configuration's outcome in the A8 policy A/B:
// the same seeded scan streams executed under one replacement policy and
// coordination setting.
type PredictiveRun struct {
	Label     string
	Policy    string
	Wall      time.Duration
	HitRatio  float64 // hits / pages read, from the run's collector
	PagesRead int64
	Misses    int64
	Throttles int64
}

// PredictiveResult compares priority-LRU under grouping+throttling against
// predictive buffer management (A8) on identical seeded realtime streams.
type PredictiveResult struct {
	Scans     int
	Pages     int
	PoolPages int
	Runs      []PredictiveRun
}

// PredictivePolicyAB (A8) runs the same seeded realtime scan streams three
// ways: the paper's mechanism (priority-LRU pool steered by grouping,
// throttling, and priority hints), predictive buffer management with all
// coordination off (the follow-up paper's claim: position knowledge at the
// pool replaces scan cooperation), and predictive with coordination kept on.
// Each run builds a fresh engine with an identically seeded table and
// identical scan specs, so hit ratios and end-to-end times are directly
// comparable.
func PredictivePolicyAB(p Params) (*PredictiveResult, error) {
	rows := int(8000 * p.Scale)
	// The table lands at ~rows/320 heap pages; size the pool to a quarter
	// of that so every variant runs under real eviction pressure — with the
	// pool close to table size all policies trivially converge.
	poolPages := rows / 320 / 4
	if poolPages < 12 {
		poolPages = 12
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

	res := &PredictiveResult{Scans: p.Streams, PoolPages: poolPages}
	for _, v := range variants {
		eng, err := scanshare.New(scanshare.Config{
			BufferPoolPages: poolPages,
			PoolPolicy:      v.policy,
			Sharing:         v.sharing,
		})
		if err != nil {
			return nil, err
		}
		tbl, err := loadSyntheticTable(eng, rows, p.Seed)
		if err != nil {
			return nil, err
		}
		res.Pages = tbl.NumPages()

		scans := make([]scanshare.RealtimeScan, p.Streams)
		estDur := time.Duration(tbl.NumPages()) * 200 * time.Microsecond
		for i := range scans {
			scans[i] = scanshare.RealtimeScan{
				Table:             tbl,
				EstimatedDuration: estDur,
				StartDelay:        time.Duration(i) * 2 * time.Millisecond,
				PageDelay:         120 * time.Microsecond,
			}
		}
		rep, err := eng.RunRealtime(context.Background(), scanshare.RealtimeOptions{
			PrefetchWorkers: 2,
			PageReadDelay:   300 * time.Microsecond,
		}, scans)
		if err != nil {
			return nil, fmt.Errorf("A8 %s: %w", v.label, err)
		}
		cs := rep.Counters
		res.Runs = append(res.Runs, PredictiveRun{
			Label:     v.label,
			Policy:    v.policy,
			Wall:      rep.Wall,
			HitRatio:  cs.HitRatio(),
			PagesRead: cs.PagesRead,
			Misses:    cs.Misses,
			Throttles: cs.ThrottleEvents,
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
	fmt.Fprintf(&b, "%d scans over %d pages, pool %d pages; identical seeded streams per run\n",
		r.Scans, r.Pages, r.PoolPages)
	tbl := metrics.NewTable("configuration", "end-to-end", "hit ratio", "pages read", "misses", "throttles")
	for _, run := range r.Runs {
		tbl.AddRow(run.Label, metrics.FormatDuration(run.Wall),
			fmt.Sprintf("%.1f%%", 100*run.HitRatio),
			fmt.Sprint(run.PagesRead), fmt.Sprint(run.Misses), fmt.Sprint(run.Throttles))
	}
	b.WriteString(tbl.Render())
	b.WriteString("wall-clock rows depend on the machine; the hit-ratio column is the\n")
	b.WriteString("structural signal (predictive should hold locality without hints)\n")
	return b.String()
}
