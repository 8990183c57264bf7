// Command scanshare-bench regenerates the paper's tables and figures.
//
// Each experiment runs the same workload on a baseline engine and on a
// sharing engine and prints a paper-style comparison. With no arguments it
// runs the complete suite; pass experiment IDs to run a subset:
//
//	scanshare-bench                 # everything
//	scanshare-bench -list           # what exists
//	scanshare-bench T1 F15 F20      # a selection
//	scanshare-bench -scale 8 -streams 5 T1
//
// All runs are deterministic for a given seed: the workload is generated
// from the seed and executed in virtual time.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"scanshare/internal/experiments"
)

func main() {
	p := experiments.DefaultParams()
	list := flag.Bool("list", false, "list experiments and exit")
	csvDir := flag.String("csv", "", "also write machine-readable CSV files into this directory")
	rtScans := flag.Int("realtime", 0, "instead of experiments, run N concurrent goroutine scans in wall-clock time")
	rtWorkers := flag.Int("rt-workers", 4, "realtime mode: prefetch worker count")
	rtPush := flag.Bool("rt-push", false, "realtime mode: push-based delivery (one reader per scan group feeds subscriber channels; -rt-workers is ignored)")
	rtShards := flag.Int("pool-shards", 1, "realtime mode: lock-striped buffer pool shard count (1 = classic single-mutex pool)")
	rtPolicy := flag.String("pool-policy", "", "buffer pool replacement policy: priority-lru (default) or predictive")
	rtTranslation := flag.String("pool-translation", "", "buffer pool page translation: map (default) or array (lock-free optimistic hit path)")
	rtPageDelay := flag.Duration("rt-pagedelay", 50*time.Microsecond, "realtime mode: per-page processing delay")
	rtReadDelay := flag.Duration("rt-readdelay", 200*time.Microsecond, "realtime mode: per-physical-read device delay")
	var rtObs rtObsFlags
	flag.StringVar(&rtObs.httpAddr, "http", "", "realtime mode: serve expvar and pprof introspection on this address (e.g. localhost:6060)")
	flag.DurationVar(&rtObs.statsEvery, "stats-every", 0, "realtime mode: print a live stats line at this interval (0 = off)")
	flag.StringVar(&rtObs.tracePath, "rt-trace", "", "realtime mode: write the structured event journal as JSONL to this file")
	flag.BoolVar(&rtObs.timeline, "rt-timeline", false, "realtime mode: print the run's event timeline after the summary")
	flag.DurationVar(&rtObs.sampleEvery, "sample-every", 100*time.Millisecond, "realtime mode: telemetry sampling interval (0 = only start/end samples)")
	flag.StringVar(&rtObs.flightDir, "flight-dir", "", "realtime mode: arm the flight recorder; dumps land in this directory on SIGQUIT or run failure")
	var rtFaults rtFaultFlags
	flag.StringVar(&rtFaults.scenario, "rt-faults", "", `realtime mode: fault scenario ("errors", "slowband", "stall", "torn")`)
	flag.Float64Var(&rtFaults.prob, "rt-fault-prob", 0.05, "realtime mode: per-(page,attempt) fault probability")
	flag.Int64Var(&rtFaults.seed, "rt-fault-seed", 1, "realtime mode: fault plan seed")
	flag.DurationVar(&rtFaults.readTimeout, "rt-read-timeout", 5*time.Millisecond, "realtime mode: per-read-attempt timeout when faults are on")
	flag.IntVar(&rtFaults.retries, "rt-read-retries", 4, "realtime mode: failed-read retry budget when faults are on")
	flag.IntVar(&rtFaults.detachAfter, "rt-detach-after", 3, "realtime mode: consecutive read failures before a scan detaches from its group (0 = never)")
	flag.Float64Var(&p.Scale, "scale", p.Scale, "workload scale factor")
	flag.Int64Var(&p.Seed, "seed", p.Seed, "data generation seed")
	flag.IntVar(&p.Streams, "streams", p.Streams, "throughput run stream count")
	flag.Float64Var(&p.BufferFrac, "buffer", p.BufferFrac, "buffer pool as a fraction of the database")
	flag.DurationVar(&p.BucketWidth, "bucket", p.BucketWidth, "activity series bucket width")
	flag.Float64Var(&p.StaggerFrac, "stagger", p.StaggerFrac, "staggered-start interval as a fraction of one cold query")
	flag.IntVar(&p.ExtentPages, "extent", p.ExtentPages, "prefetch extent in pages")
	flag.IntVar(&p.Cores, "cores", p.Cores, "CPU cores (0 = unlimited)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: %s [flags] [experiment-id ...]\n\nflags:\n", os.Args[0])
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, spec := range experiments.All() {
			fmt.Printf("%-4s %s\n", spec.ID, spec.Title)
		}
		return
	}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *rtScans > 0 {
		if _, err := runRealtime(p, *rtScans, *rtWorkers, *rtShards, *rtPolicy, *rtTranslation, *rtPush, *rtPageDelay, *rtReadDelay, rtFaults, rtObs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	specs := experiments.All()
	if args := flag.Args(); len(args) > 0 {
		specs = specs[:0]
		for _, id := range args {
			spec, err := experiments.Lookup(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			specs = append(specs, spec)
		}
	}

	for i, spec := range specs {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s: %s\n", spec.ID, spec.Title)
		start := time.Now()
		res, err := spec.Run(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", spec.ID, err)
			os.Exit(1)
		}
		fmt.Print(res.Render())
		fmt.Printf("(ran in %v)\n", time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSV(*csvDir, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}

// writeCSV dumps a result's CSV files, when it offers any.
func writeCSV(dir string, res experiments.Result) error {
	exp, ok := res.(experiments.CSVExporter)
	if !ok {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, content := range exp.CSV() {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}
