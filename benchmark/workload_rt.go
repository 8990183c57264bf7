package main

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"scanshare"
	"scanshare/internal/heap"
	"scanshare/internal/metrics"
	"scanshare/internal/workload"
)

const (
	rtScale     = 40 // lineitem ~13k pages against a ~940-page pool
	rtConsumers = 8
	// q1Statement is the Q1-shaped query both realtime workloads run, as the
	// virtual-time executor sees it when it computes the oracle.
	q1Statement = "SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), count(*) " +
		"FROM lineitem GROUP BY l_returnflag, l_linestatus"
	q1KeyCols = 2
)

// q1Query is the same statement as a realtime aggregation consumer over the
// page range [start, end) of lineitem; end 0 means the whole table.
func q1Query(tbl *scanshare.Table, start, end int) scanshare.RealtimeAggQuery {
	return scanshare.RealtimeAggQuery{
		Scan:    scanshare.RealtimeScan{Table: tbl, StartPage: start, EndPage: end},
		GroupBy: []string{"l_returnflag", "l_linestatus"},
		Aggs: []scanshare.RealtimeAggSpec{
			{Kind: scanshare.Sum, Column: "l_quantity"},
			{Kind: scanshare.Sum, Column: "l_extendedprice"},
			{Kind: scanshare.Count},
		},
	}
}

// paperEngine builds an engine at the paper's regime — pool = 5% of the
// database, prefetch extent 8 — and loads the generated database into it.
// Everything else is whatever the zero-valued Config selects, except in the
// traced pass's configuration factorial.
func paperEngine(r *rep, scale float64) (*scanshare.Engine, *workload.DB, error) {
	gen := workload.GenConfig{ScaleFactor: scale, Seed: r.opt.seed}
	cfg := scanshare.Config{
		BufferPoolPages: workload.BufferPoolFor(gen, 0, 0.05),
		Sharing:         scanshare.SharingConfig{PrefetchExtentPages: 8},
	}
	switch r.opt.variant {
	case "array":
		cfg.PoolTranslation = scanshare.PoolTranslationArray
	case "predictive":
		cfg.PoolPolicy = scanshare.PoolPolicyPredictive
	case "shards4":
		cfg.PoolShards = 4
	case "all":
		cfg.PoolTranslation = scanshare.PoolTranslationArray
		cfg.PoolPolicy = scanshare.PoolPolicyPredictive
		cfg.PoolShards = 4
	}
	var eng *scanshare.Engine
	var db *workload.DB
	err := r.timeSetup("engine.new", func() (err error) {
		eng, err = scanshare.New(cfg)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	err = r.timeSetup("workload.load", func() (err error) {
		db, err = workload.Load(eng, gen)
		return err
	})
	return eng, db, err
}

// q1Oracles caches the virtual-time executor's answer per (scale, seed): the
// data is a pure function of both, so every repetition checks against the
// same rows and only the first one pays for computing them.
var q1Oracles sync.Map

type oracleKey struct {
	scale float64
	seed  int64
}

// q1Oracle runs the statement through Engine.SQL and Engine.Run. It is called
// after the measured section, so the oracle's scan cannot warm the pool.
func q1Oracle(r *rep, eng *scanshare.Engine, scale float64) ([]scanshare.Tuple, error) {
	key := oracleKey{scale, r.opt.seed}
	if rows, ok := q1Oracles.Load(key); ok {
		return rows.([]scanshare.Tuple), nil
	}
	sp := r.spans.start(r.root, "oracle", "sql.compile")
	q, err := eng.SQL(q1Statement)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	sp = r.spans.start(r.root, "oracle", "exec.run")
	rep, err := eng.Run(scanshare.Baseline, []scanshare.Job{{Query: q}})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	rows := rep.Results[0].Rows
	q1Oracles.Store(key, rows)
	return rows, nil
}

// consumerTap is the harness's OnPage hook for one consumer. The program
// chains it before its own fold, on the consumer's goroutine, so plain fields
// suffice. It counts what was delivered — the evidence for "every page
// exactly once" — and, when tracing, when delivery began and ended.
type consumerTap struct {
	schema      *scanshare.Schema
	seen        []uint8
	tuples      int64
	first, last time.Time
	timed       bool
}

func (c *consumerTap) onPage(pageNo int, data []byte) {
	if pageNo >= 0 && pageNo < len(c.seen) && c.seen[pageNo] < 255 {
		c.seen[pageNo]++
	}
	if v, err := heap.View(c.schema, data); err == nil {
		c.tuples += int64(v.NumTuples())
	}
	if c.timed {
		c.last = time.Now()
		if c.first.IsZero() {
			c.first = c.last
		}
	}
}

// runRT is rt_shared_agg (one call, eight full-table consumers) and
// rt_disjoint_agg (eight calls; in call k consumer i scans eighth (i+k) mod 8,
// so over the repetition every consumer still sees every page once).
func runRT(r *rep) error {
	scale := float64(rtScale)
	if r.opt.quick {
		scale = 1
	}
	eng, db, err := paperEngine(r, scale)
	if err != nil {
		return err
	}
	tbl := db.Lineitem
	n := tbl.NumPages()
	passes := 1
	if r.workload == wlDisjoint {
		passes = rtConsumers
	}

	taps := make([]*consumerTap, rtConsumers)
	for i := range taps {
		taps[i] = &consumerTap{schema: tbl.Schema(), seen: make([]uint8, n), timed: r.opt.traced}
	}
	opts := scanshare.RealtimeOptions{PrefetchWorkers: 2, Collector: new(metrics.Collector)}
	shareState := false
	switch r.opt.variant {
	case "push":
		opts.PushDelivery = true
	case "push_sharestate", "all":
		opts.PushDelivery, shareState = true, true
	}
	if r.opt.traced && r.opt.variant == "" {
		r.startTracing()
		opts.Tracer = r.tracer
	}

	// Build every call's queries before the clock starts.
	calls := make([][]scanshare.RealtimeAggQuery, passes)
	for k := range calls {
		calls[k] = make([]scanshare.RealtimeAggQuery, rtConsumers)
		for i := range calls[k] {
			start, end := 0, 0
			if r.workload == wlDisjoint {
				e := (i + k) % rtConsumers
				start, end = e*n/rtConsumers, (e+1)*n/rtConsumers
			}
			q := q1Query(tbl, start, end)
			q.Scan.OnPage = taps[i].onPage
			if r.tracer != nil {
				q.Scan.Span = r.tracer.Root() // pre-allocated, so the trace is known to be query i's
			}
			calls[k][i] = q
		}
	}

	reports := make([]*scanshare.RealtimeAggReport, passes)
	r.beginMeasure()
	for k, queries := range calls {
		sp := r.spans.start(r.root, "call-"+strconv.Itoa(k), "realtime.run_aggregates")
		for i, q := range queries {
			if q.Scan.Span.Valid() {
				r.opOf[q.Scan.Span.Trace] = issued{queryOp(k, i), sp.id()}
			}
		}
		rep, err := eng.RunRealtimeAggregates(context.Background(), opts, queries, shareState)
		sp.end()
		if err != nil {
			return err
		}
		reports[k] = rep
		if r.spans != nil {
			for i, t := range taps {
				if !t.first.IsZero() {
					r.spans.add(sp.id(), queryOp(k, i), "realtime.deliver_pages", t.first, t.last)
					t.first = time.Time{}
				}
			}
		}
	}
	r.endMeasure()
	pool := eng.PoolStats()[""] // cumulative over the fresh engine's life; read before the oracle scans
	asm := r.stopTracing()

	// Oracles. No scan may fail, stop early or skip a page; every query's
	// rows must equal the virtual-time executor's; every consumer must have
	// been handed every page exactly once.
	want, err := q1Oracle(r, eng, scale)
	if err != nil {
		return err
	}
	r.attempted = passes * rtConsumers
	var poolWait, readWait, deliveryWait time.Duration
	for k, rep := range reports {
		for i, res := range rep.Results {
			r.logical += int64(res.PagesRead)
			poolWait += res.PoolWait
			readWait += res.ReadWait
			deliveryWait += res.DeliveryWait
			if res.Err != nil || res.Stopped || res.DegradedPages != 0 {
				r.fail(1, "%s: err=%v stopped=%v degraded=%d", queryOp(k, i), res.Err, res.Stopped, res.DegradedPages)
			}
		}
		if r.workload == wlShared {
			for i, rows := range rep.Rows {
				if d := rowsDiffer(rows, want); d != "" {
					r.fail(1, "%s: %s", queryOp(k, i), d)
				}
			}
		} else if d := rowsDiffer(mergePartials(rep.Rows, q1KeyCols), want); d != "" {
			r.fail(rtConsumers, "call %d: merged partial results: %s", k, d)
		}
	}
	var tuples int64
	for i, t := range taps {
		tuples += t.tuples
		for p, c := range t.seen {
			if c != 1 {
				r.fail(1, "consumer %d saw page %d %d times", i, p, c)
				break
			}
		}
	}

	last := reports[passes-1]
	r.phys = r.poolMetrics(pool)
	r.sharingMetrics(last.Sharing) // cumulative over the fresh engine's life
	r.realtimeMetrics(last.Counters, poolWait, readWait, deliveryWait)
	r.set("exec.tuples_folded", float64(tuples))
	if fold := r.metrics["trace.breakdown.fold_s"]; fold > 0 && tuples > 0 {
		r.set("exec.fold_busy_s", fold)
		r.set("exec.fold_ns_per_tuple", fold*1e9/float64(tuples))
	}
	r.programSpans(asm)
	return nil
}

func queryOp(call, consumer int) string {
	return "call-" + strconv.Itoa(call) + "/query-" + strconv.Itoa(consumer)
}

// realtimeMetrics reports the realtime layer from the run's collector (shared
// by every call of the repetition) and the per-scan wait counters.
func (r *rep) realtimeMetrics(c metrics.CollectorStats, poolWait, readWait, deliveryWait time.Duration) {
	r.set("core.throttle_wait_s", c.ThrottleWait.Seconds())
	r.set("realtime.pool_wait_s", poolWait.Seconds())
	r.set("realtime.read_wait_s", readWait.Seconds())
	r.set("realtime.delivery_wait_s", deliveryWait.Seconds())
	r.set("realtime.reads_coalesced", float64(c.ReadsCoalesced))
	r.set("realtime.prefetch_filled", float64(c.PrefetchFilled))
	r.set("realtime.prefetch_dropped", float64(c.PrefetchDropped))
	r.set("realtime.page_read_p50_us", float64(c.PageReadLatency.P50)/1e3)
	r.set("realtime.page_read_p99_us", float64(c.PageReadLatency.P99)/1e3)
}
