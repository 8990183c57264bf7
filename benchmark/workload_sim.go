package main

import (
	"fmt"
	"math"

	"scanshare"
	"scanshare/internal/experiments"
	"scanshare/internal/metrics"
	"scanshare/internal/workload"
)

// anchorSeed is the seed at which the repository's paper-fidelity anchor was
// recorded (EXPERIMENTS.md, T1): makespan, read and seek gains in percent.
const anchorSeed = 42

var anchorGains = [3]float64{46.7, 45.3, 47.4}

// simParams is the paper's Table 1 configuration; the smoke size keeps the
// 5% pool and shrinks the database and the stream count.
func simParams(opt options) experiments.Params {
	p := experiments.DefaultParams()
	if opt.quick {
		p = experiments.TestParams()
		p.Scale = 1
	}
	p.Seed = opt.seed
	return p
}

// runSim is sim_streams: the throughput workload in virtual time, Baseline
// then Shared, each on a fresh engine.
func runSim(r *rep) error {
	p := simParams(r.opt)
	gen := workload.GenConfig{ScaleFactor: p.Scale, Seed: p.Seed}
	engines := make([]*scanshare.Engine, 2)
	dbs := make([]*workload.DB, 2)
	for i := range engines {
		err := r.timeSetup("engine.new", func() (err error) {
			engines[i], err = scanshare.New(scanshare.Config{
				BufferPoolPages: workload.BufferPoolFor(gen, 0, p.BufferFrac),
				Disk:            scanshare.DiskConfig{SeriesBucket: p.BucketWidth},
				Sharing:         scanshare.SharingConfig{PrefetchExtentPages: p.ExtentPages},
			})
			return err
		})
		if err != nil {
			return err
		}
		err = r.timeSetup("workload.load", func() (err error) {
			dbs[i], err = workload.Load(engines[i], gen)
			return err
		})
		if err != nil {
			return err
		}
	}

	reports := make([]*scanshare.Report, 2)
	r.beginMeasure()
	for i, mode := range []scanshare.Mode{scanshare.Baseline, scanshare.Shared} {
		sp := r.spans.start(r.root, r.workload+"/"+mode.String(), "sim.run_streams")
		rep, err := engines[i].RunStreams(mode, workload.ThroughputStreams(dbs[i], p.Streams))
		sp.end()
		if err != nil {
			return err
		}
		reports[i] = rep
	}
	r.endMeasure()
	base, shared := reports[0], reports[1]

	// Oracle: sharing must not change any query's answer.
	r.attempted = len(base.Results) + len(shared.Results)
	if len(base.Results) != len(shared.Results) {
		r.fail(r.attempted, "baseline ran %d queries, shared %d", len(base.Results), len(shared.Results))
	} else {
		for i := range base.Results {
			b, s := base.Results[i], shared.Results[i]
			if b.Name != s.Name || b.Stream != s.Stream {
				r.fail(2, "query %d is %s/%d in baseline, %s/%d in shared", i, b.Name, b.Stream, s.Name, s.Stream)
			} else if d := rowsDiffer(s.Rows, b.Rows); d != "" {
				r.fail(2, "stream %d %s: shared vs baseline: %s", b.Stream, b.Name, d)
			}
		}
	}

	gains := [3]float64{
		metrics.GainDur(base.Makespan, shared.Makespan),
		metrics.GainInt(base.Disk.Reads, shared.Disk.Reads),
		metrics.GainInt(base.Disk.Seeks, shared.Disk.Seeks),
	}
	if r.opt.seed == anchorSeed && !r.opt.quick {
		for i, g := range gains {
			if math.Abs(g*100-anchorGains[i]) > 0.1 {
				r.fail(r.attempted-r.failed, "gain %d is %.2f%%, anchor %.1f%%", i, g*100, anchorGains[i])
			}
		}
	}

	var sharedLogical, tuples int64
	for _, rep := range reports {
		for _, q := range rep.Results {
			r.logical += q.LogicalReads
			tuples += q.TuplesRead
		}
	}
	for _, q := range shared.Results {
		sharedLogical += q.LogicalReads
	}
	wall := r.wall().Seconds()
	virtual := (base.Makespan + shared.Makespan).Seconds()

	r.set("virtual_makespan_s", shared.Makespan.Seconds())
	r.set("makespan_gain", gains[0])
	r.set("read_gain", gains[1])
	r.set("seek_gain", gains[2])
	r.note("base.virtual_makespan_s", base.Makespan.Seconds())
	r.note("base.disk_reads", float64(base.Disk.Reads))
	r.note("base.disk_seeks", float64(base.Disk.Seeks))

	// The Shared run is the one the paper's mechanism acts on: its device
	// reads per page delivered, and its layer counters.
	r.poolMetrics(shared.Pool)
	r.sharingMetrics(shared.Sharing)
	r.set("core.throttle_wait_s", shared.Sharing.ThrottleTime.Seconds())
	r.set("phys_reads_per_logical_page", share(shared.Disk.Reads, sharedLogical))
	r.set("buffer.phys_reads_per_logical_page", share(shared.Disk.Reads, sharedLogical))
	r.set("disk.reads", float64(shared.Disk.Reads))
	r.set("disk.seeks", float64(shared.Disk.Seeks))
	r.set("disk.seeks_per_read", share(shared.Disk.Seeks, shared.Disk.Reads))
	r.set("disk.busy_s", shared.Disk.BusyTime.Seconds())
	r.set("disk.queue_wait_s", shared.Disk.QueueWait.Seconds())
	if wall > 0 && virtual > 0 {
		r.set("exec.sim_tuples_per_wall_s", float64(tuples)/wall)
		r.set("sim.wall_s_per_virtual_s", wall/virtual)
	}
	if base.Makespan <= 0 || shared.Makespan <= 0 {
		return fmt.Errorf("sim_streams: empty makespan")
	}
	return nil
}
