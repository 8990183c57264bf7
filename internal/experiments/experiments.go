// Package experiments contains one driver per table and figure of the
// paper's evaluation, plus the ablation and sensitivity studies called out
// in DESIGN.md. Every driver runs the same workload twice — once on a
// baseline engine, once on a sharing engine — and reports paper-style
// comparisons: end-to-end gains, disk read/seek gains, time decompositions,
// and activity-over-time series.
//
// All experiments are deterministic: seeded data generation plus virtual
// time make every run bit-for-bit reproducible, so the expected shapes are
// asserted in ordinary tests as well as printed by the bench harness.
//
// Experiment IDs follow DESIGN.md: T1 (throughput table), F15–F20 (figures),
// OV (overhead), A1–A3 (ablations), A4–A5 (sensitivity sweeps), A6
// (placement-policy extension), A7 (concurrency scaling).
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"scanshare"
	"scanshare/internal/workload"
)

// Params sizes an experiment run.
type Params struct {
	// Scale is the workload scale factor (see workload.GenConfig).
	Scale float64
	// Seed drives data generation.
	Seed int64
	// Streams is the throughput run's stream count; the paper uses 5.
	Streams int
	// BufferFrac sizes the buffer pool as a fraction of the database;
	// the paper uses about 5%.
	BufferFrac float64
	// BucketWidth is the granularity of the reads/seeks-over-time series.
	BucketWidth time.Duration
	// StaggerFrac sets the staggered-query start interval as a fraction
	// of one cold query execution (the paper's 10s against multi-minute
	// queries is a few percent).
	StaggerFrac float64
	// ExtentPages is the SSM's prefetch extent. The harness scales it
	// down from DB2's 16 pages so that the 2-extent throttle threshold
	// stays a small fraction of the (scaled-down) buffer pool, matching
	// the paper's proportions.
	ExtentPages int
	// Cores bounds parallel CPU work (0 = unlimited). The default
	// harness runs unbounded, which makes baseline CPU-bound runs faster
	// than the paper's 4-CPU boxes and the reported gains conservative.
	Cores int
}

// DefaultParams returns the configuration used by the bench harness:
// scale 4 (≈1900 database pages), 5 streams, 5% buffer pool.
func DefaultParams() Params {
	return Params{
		Scale:       4,
		Seed:        42,
		Streams:     5,
		BufferFrac:  0.05,
		BucketWidth: 500 * time.Millisecond,
		StaggerFrac: 0.10,
		ExtentPages: 8,
	}
}

// TestParams returns a smaller configuration for the unit-test suite.
func TestParams() Params {
	p := DefaultParams()
	p.Scale = 1.5
	p.ExtentPages = 4
	p.Streams = 3
	p.BucketWidth = 250 * time.Millisecond
	return p
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Scale <= 0 {
		return fmt.Errorf("experiments: non-positive scale %g", p.Scale)
	}
	if p.Streams <= 0 {
		return fmt.Errorf("experiments: non-positive stream count %d", p.Streams)
	}
	if p.BufferFrac <= 0 || p.BufferFrac > 2 {
		return fmt.Errorf("experiments: buffer fraction %g out of range", p.BufferFrac)
	}
	if p.StaggerFrac < 0 {
		return fmt.Errorf("experiments: negative stagger fraction")
	}
	if p.ExtentPages < 0 {
		return fmt.Errorf("experiments: negative extent pages")
	}
	if p.Cores < 0 {
		return fmt.Errorf("experiments: negative core count")
	}
	return nil
}

// buildEngine creates an engine sized per the params and loads the workload
// database into it.
func buildEngine(p Params, sharing scanshare.SharingConfig) (*scanshare.Engine, *workload.DB, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	gen := workload.GenConfig{ScaleFactor: p.Scale, Seed: p.Seed}
	pool := workload.BufferPoolFor(gen, 0, p.BufferFrac)
	if sharing.PrefetchExtentPages == 0 && p.ExtentPages > 0 {
		sharing.PrefetchExtentPages = p.ExtentPages
	}
	eng, err := scanshare.New(scanshare.Config{
		BufferPoolPages: pool,
		Disk:            scanshare.DiskConfig{SeriesBucket: p.BucketWidth},
		CPU:             scanshare.CPUConfig{Cores: p.Cores},
		Sharing:         sharing,
	})
	if err != nil {
		return nil, nil, err
	}
	db, err := workload.Load(eng, gen)
	if err != nil {
		return nil, nil, err
	}
	return eng, db, nil
}

// RTEngine builds the wall-clock workload that scanshare-bench -realtime and
// scanshare-serve both run, so a query written against one works on the
// other: one table "rt" (id int64, v float64, tag string) of 30000 × Scale
// rows generated from Seed, behind a pool of BufferFrac of its estimated
// pages (about 80 rows per 8 KiB page) but no fewer than 32. An empty policy
// or translation picks the engine default. The pool size is returned with
// the engine for the callers' banners.
func RTEngine(p Params, shards int, policy, translation string) (*scanshare.Engine, *scanshare.Table, int, error) {
	rows := int(30000 * p.Scale)
	poolPages := max(32, int(float64(rows/80)*p.BufferFrac))
	eng, err := scanshare.New(scanshare.Config{
		BufferPoolPages: poolPages,
		PoolShards:      shards,
		PoolPolicy:      policy,
		PoolTranslation: translation,
		Sharing:         scanshare.SharingConfig{PrefetchExtentPages: p.ExtentPages},
	})
	if err != nil {
		return nil, nil, 0, err
	}
	schema := scanshare.MustSchema(
		scanshare.Field{Name: "id", Kind: scanshare.KindInt64},
		scanshare.Field{Name: "v", Kind: scanshare.KindFloat64},
		scanshare.Field{Name: "tag", Kind: scanshare.KindString},
	)
	rng := rand.New(rand.NewSource(p.Seed))
	tbl, err := eng.LoadTable("rt", schema, func(add func(scanshare.Tuple) error) error {
		for i := 0; i < rows; i++ {
			err := add(scanshare.Tuple{
				scanshare.Int64(int64(i)),
				scanshare.Float64(rng.Float64()),
				scanshare.String(fmt.Sprintf("tag-%02d", rng.Intn(40))),
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return eng, tbl, poolPages, nil
}

// Result is what every experiment driver returns: a renderable report.
type Result interface {
	// Render returns the experiment's textual report, including the
	// paper-style table or figure it regenerates.
	Render() string
}

// Spec names an experiment for the command-line harness.
type Spec struct {
	// ID is the DESIGN.md experiment ID (e.g. "T1", "F15").
	ID string
	// Title describes the experiment.
	Title string
	// Run executes the experiment.
	Run func(Params) (Result, error)
}

// All returns every experiment, in DESIGN.md order.
func All() []Spec {
	return []Spec{
		{ID: "T1", Title: "5-stream throughput run: end-to-end, disk read and seek gains (Table 1)",
			Run: func(p Params) (Result, error) { return runView(p, (*Throughput).Table1) }},
		{ID: "F15", Title: "3 staggered I/O-bound queries (Q6): time decomposition and per-run gains (Figure 15)",
			Run: func(p Params) (Result, error) { return Figure15(p) }},
		{ID: "F16", Title: "3 staggered CPU-bound queries (Q1): time decomposition and per-run gains (Figure 16)",
			Run: func(p Params) (Result, error) { return Figure16(p) }},
		{ID: "F17", Title: "disk bytes read over time, base vs shared (Figure 17)",
			Run: func(p Params) (Result, error) { return runView(p, (*Throughput).Figure17) }},
		{ID: "F18", Title: "disk seeks over time, base vs shared (Figure 18)",
			Run: func(p Params) (Result, error) { return runView(p, (*Throughput).Figure18) }},
		{ID: "F19", Title: "per-stream end-to-end gains (Figure 19)",
			Run: func(p Params) (Result, error) { return runView(p, (*Throughput).Figure19) }},
		{ID: "F20", Title: "per-query mean execution times, base vs shared (Figure 20)",
			Run: func(p Params) (Result, error) { return runView(p, (*Throughput).Figure20) }},
		{ID: "OV", Title: "single-stream overhead of the sharing machinery",
			Run: func(p Params) (Result, error) { return Overhead(p) }},
		{ID: "A1", Title: "ablation: throttling disabled (drift)",
			Run: func(p Params) (Result, error) { return AblationNoThrottle(p) }},
		{ID: "A2", Title: "ablation: priority hints disabled",
			Run: func(p Params) (Result, error) { return AblationNoPriority(p) }},
		{ID: "A3", Title: "ablation: placement disabled",
			Run: func(p Params) (Result, error) { return AblationNoPlacement(p) }},
		{ID: "A4", Title: "sensitivity: buffer pool size sweep (crossover)",
			Run: func(p Params) (Result, error) { return BufferSweep(p) }},
		{ID: "A5", Title: "sensitivity: throttle threshold sweep",
			Run: func(p Params) (Result, error) { return ThrottleSweep(p) }},
		{ID: "A6", Title: "extension: heuristic vs estimator placement policy",
			Run: func(p Params) (Result, error) { return PlacementPolicies(p) }},
		{ID: "A7", Title: "scaling: sharing benefit vs stream count",
			Run: func(p Params) (Result, error) { return StreamSweep(p) }},
		{ID: "A8", Title: "extension: predictive buffer management vs grouping+throttling",
			Run: func(p Params) (Result, error) { return PredictivePolicyAB(p) }},
	}
}

// runView runs the throughput pair and extracts one of its views.
func runView[R Result](p Params, view func(*Throughput) R) (Result, error) {
	tp, err := RunThroughput(p)
	if err != nil {
		return nil, err
	}
	return view(tp), nil
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Spec, error) {
	for _, s := range All() {
		if s.ID == id {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("experiments: no experiment %q", id)
}
