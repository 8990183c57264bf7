package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"scanshare"
	"scanshare/internal/experiments"
	"scanshare/internal/metrics"
	"scanshare/internal/telemetry"
	"scanshare/internal/trace"
)

// rtObsFlags bundles the realtime-mode observability knobs: the
// introspection server, the telemetry sampler, the flight recorder, the
// periodic stats reporter, the JSONL event journal, and the post-run
// timeline rendering.
type rtObsFlags struct {
	httpAddr    string
	statsEvery  time.Duration
	tracePath   string
	timeline    bool
	sampleEvery time.Duration
	flightDir   string
}

// rtFaultFlags bundles the -rt-fault* command-line knobs.
type rtFaultFlags struct {
	scenario    string
	prob        float64
	seed        int64
	readTimeout time.Duration
	retries     int
	detachAfter int
}

// apply turns the flags into a fault plan plus tolerance settings on opts.
// The scenarios are canned shapes of the failure modes the engine degrades
// under:
//
//	errors   — transient read errors on every page; retries absorb them
//	slowband — a permanent latency band over the first eighth of the table
//	stall    — reads in a narrow band stall forever on the first two
//	           attempts, then recover; the per-read timeout unsticks them
//	torn     — short reads on every page, always retried successfully
func (f rtFaultFlags) apply(opts *scanshare.RealtimeOptions, tbl *scanshare.Table) error {
	if f.scenario == "" {
		return nil
	}
	rule := scanshare.FaultRule{Table: tbl, Prob: f.prob}
	switch f.scenario {
	case "errors":
		rule.Kind = scanshare.FaultError
		rule.UntilAttempt = 2
	case "slowband":
		rule.Kind = scanshare.FaultLatency
		rule.Latency = 2 * time.Millisecond
		rule.LastPage = tbl.NumPages() / 8
	case "stall":
		rule.Kind = scanshare.FaultStall
		rule.UntilAttempt = 2
		rule.FirstPage = tbl.NumPages() / 4
		rule.LastPage = tbl.NumPages() / 2
	case "torn":
		rule.Kind = scanshare.FaultTorn
		rule.UntilAttempt = 1
	default:
		return fmt.Errorf("unknown fault scenario %q (want errors, slowband, stall, or torn)", f.scenario)
	}
	opts.Faults = &scanshare.FaultPlan{Seed: f.seed, Rules: []scanshare.FaultRule{rule}}
	opts.ReadTimeout = f.readTimeout
	opts.MaxReadRetries = f.retries
	opts.DetachAfterFailures = f.detachAfter
	opts.ContinueOnPageFailure = true
	return nil
}

// publishRealtimeExpvars hooks this run's engine and tracer into the
// process-wide expvar names. telemetry.PublishExpvar publishes each name at
// most once per process and swaps the provider on later calls, so re-running
// runRealtime (tests drive it directly) never hits the duplicate-Publish
// panic.
func publishRealtimeExpvars(eng *scanshare.Engine, tracer *trace.Tracer) {
	telemetry.PublishExpvar("scanshare_pools", func() any { return eng.PoolStats() })
	telemetry.PublishExpvar("scanshare_sharing", func() any { return eng.SharingSnapshot() })
	telemetry.PublishExpvar("scanshare_trace_dropped", func() any {
		if tracer == nil {
			return 0
		}
		return tracer.Dropped()
	})
}

// runRealtime executes n concurrent goroutine scans of one synthetic table
// in wall-clock time — the realtime counterpart of the virtual-time
// experiments, exercising the same pool and scan sharing manager with real
// concurrency. Ctrl-C cancels the run gracefully; every scan stops at its
// next page boundary. SIGQUIT dumps a flight record (recent telemetry
// samples plus the trace tail) and keeps running.
//
// Unlike the virtual-time experiments, the printed timings depend on the
// machine; the structural counters (placements, hit ratio, throttles) are
// what to look at. The report is printed, and returned for tests.
func runRealtime(p experiments.Params, n, workers, shards int, policy, translation string, push bool, pageDelay, readDelay time.Duration, faults rtFaultFlags, obs rtObsFlags) (*scanshare.RealtimeReport, error) {
	eng, tbl, poolPages, err := experiments.RTEngine(p, shards, policy, translation)
	if err != nil {
		return nil, err
	}
	if policy == "" {
		policy = scanshare.PoolPolicyLRU
	}
	if translation == "" {
		translation = scanshare.PoolTranslationMap
	}

	scans := make([]scanshare.RealtimeScan, n)
	for i := range scans {
		scans[i] = scanshare.RealtimeScan{
			Table:      tbl,
			StartDelay: time.Duration(i) * 2 * time.Millisecond,
			PageDelay:  pageDelay,
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	col := new(metrics.Collector)
	opts := scanshare.RealtimeOptions{
		PrefetchWorkers: workers,
		PageReadDelay:   readDelay,
		PushDelivery:    push,
		Collector:       col,
	}
	if err := faults.apply(&opts, tbl); err != nil {
		return nil, err
	}

	// Observability: event journal sinks, the telemetry sampler, the flight
	// recorder, the live introspection server, and the periodic stats
	// reporter. The tracer drains its ring on a short ticker so the JSONL
	// journal and expvar counters stay current during the run.
	var tracer *trace.Tracer
	var rec *trace.Recorder
	var traceFile *os.File
	if obs.tracePath != "" || obs.timeline || obs.flightDir != "" {
		tracer = trace.NewTracer(nil)
		if obs.timeline || obs.flightDir != "" {
			rec = &trace.Recorder{Cap: 1 << 16}
			tracer.Attach(rec)
		}
		if obs.tracePath != "" {
			f, err := os.Create(obs.tracePath)
			if err != nil {
				return nil, err
			}
			traceFile = f
			tracer.Attach(trace.NewJSONLSink(f))
		}
		tracer.Start(20 * time.Millisecond)
		opts.Tracer = tracer
	}

	sources := eng.TelemetrySources(col)
	sampler := telemetry.NewSampler(sources, obs.sampleEvery, 0)
	if obs.sampleEvery > 0 {
		sampler.Start()
	}
	flight := &telemetry.FlightRecorder{Sampler: sampler, Dir: obs.flightDir}
	if rec != nil {
		flight.Events = rec.Tail
	}
	dumpFlight := func(reason string) {
		path, err := flight.DumpFile(reason)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flight recorder:", err)
			return
		}
		fmt.Fprintf(os.Stderr, "flight record (%s): %s\n", reason, path)
	}

	// SIGQUIT dumps a flight record instead of killing the process — the
	// "what is it doing right now" lever for a wedged-looking run.
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	quitDone := make(chan struct{})
	go func() {
		defer close(quitDone)
		for range quitCh {
			dumpFlight("sigquit")
		}
	}()
	defer func() { signal.Stop(quitCh); close(quitCh); <-quitDone }()

	if obs.httpAddr != "" {
		// The shared telemetry plumbing builds a fresh mux per start and
		// publishes expvar names through the process-wide guard, so a second
		// run in the same process cannot panic on duplicate registration.
		publishRealtimeExpvars(eng, tracer)
		srv, err := telemetry.StartIntrospection(obs.httpAddr, telemetry.NewDebugMux(&sources))
		if err != nil {
			return nil, fmt.Errorf("introspection server: %w", err)
		}
		addr := srv.Addr()
		fmt.Printf("introspection: http://%s/debug/vars http://%s/debug/pprof/ http://%s/metrics\n",
			addr, addr, addr)
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				fmt.Fprintln(os.Stderr, "introspection server shutdown:", err)
			}
		}()
	}

	stopStats := make(chan struct{})
	var statsWG sync.WaitGroup
	if obs.statsEvery > 0 {
		statsWG.Add(1)
		go func() {
			defer statsWG.Done()
			tick := time.NewTicker(obs.statsEvery)
			defer tick.Stop()
			start := time.Now()
			for {
				select {
				case <-stopStats:
					return
				case <-tick.C:
					ps := eng.PoolStats()[""]
					snap := eng.SharingSnapshot()
					line := fmt.Sprintf("[%8v] pool %.1f%% hit, %d evictions",
						time.Since(start).Round(time.Millisecond), 100*ps.HitRatio(), ps.Evictions)
					if bd := ps.EvictionBreakdown(); bd != "" {
						line += " (" + bd + ")"
					}
					line += fmt.Sprintf("; %d scans in %d groups", len(snap.Scans), len(snap.Groups))
					if tracer != nil {
						line += fmt.Sprintf("; trace dropped %d", tracer.Dropped())
					}
					fmt.Println(line)
				}
			}
		}()
	}

	delivery := fmt.Sprintf("%d prefetch workers", workers)
	if push {
		delivery = "push delivery"
	}
	fmt.Printf("realtime: %d goroutine scans of %d pages, pool %d pages (%d shards, %s policy, %s translation), %s\n",
		n, tbl.NumPages(), poolPages, shards, policy, translation, delivery)
	if faults.scenario != "" {
		fmt.Printf("faults: scenario %q, prob %.3f, seed %d; timeout %v, %d retries, detach after %d\n",
			faults.scenario, faults.prob, faults.seed, faults.readTimeout, faults.retries, faults.detachAfter)
	}
	rep, err := eng.RunRealtime(ctx, opts, scans)
	close(stopStats)
	statsWG.Wait()
	sampler.Stop()
	if err != nil && obs.flightDir != "" {
		dumpFlight("run-error: " + err.Error())
	}
	if tracer != nil {
		if cerr := tracer.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trace sink: %w", cerr)
		}
		if traceFile != nil {
			if cerr := traceFile.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		return nil, err
	}

	for _, res := range rep.Results {
		status := "done"
		if res.Stopped {
			status = "stopped"
		}
		suffix := ""
		if res.ReadRetries > 0 || res.DegradedPages > 0 || res.Detaches > 0 {
			suffix = fmt.Sprintf(", %d retries (%d timeouts), %d degraded, %d detach/%d rejoin",
				res.ReadRetries, res.ReadTimeouts, res.DegradedPages, res.Detaches, res.Rejoins)
		}
		if res.PushBatches > 0 || res.PushSelfPulled > 0 {
			suffix += fmt.Sprintf(", %d batches", res.PushBatches)
			if res.PushDemoted {
				suffix += fmt.Sprintf(" (demoted, %d self-pulled)", res.PushSelfPulled)
			}
		}
		fmt.Printf("  scan %2d: %5d pages (%5d hit / %5d miss), throttled %8v, %s%s\n",
			res.Scan, res.PagesRead, res.Hits, res.Misses, res.ThrottleWait.Round(time.Microsecond), status, suffix)
	}
	fmt.Printf("wall time %v\n", rep.Wall.Round(time.Millisecond))
	fmt.Printf("counters: %s\n", rep.Counters)
	if h := rep.Counters.Histograms(); h != "" {
		fmt.Print(h)
	}
	if def, ok := rep.Pools[""]; ok {
		line := fmt.Sprintf("pool: %.1f%% hit ratio (%d logical reads, %d evictions",
			100*def.HitRatio(), def.LogicalReads, def.Evictions)
		if bd := def.EvictionBreakdown(); bd != "" {
			line += ": " + bd
		}
		line += ")"
		if def.Aborts > 0 {
			line += fmt.Sprintf(", %d aborted reads", def.Aborts)
		}
		fmt.Println(line)
	}
	if def, ok := rep.Pools[""]; ok {
		line := fmt.Sprintf("contention: %d shards, %d busy retries, %d all-pinned, %d reads coalesced",
			def.Shards, def.BusyRetries, def.AllPinned, rep.Counters.ReadsCoalesced)
		if rep.Counters.CoalescedFailures > 0 {
			line += fmt.Sprintf(" (%d failed)", rep.Counters.CoalescedFailures)
		}
		if def.OptimisticHits > 0 || def.OptimisticFallbacks > 0 {
			line += fmt.Sprintf("; optimistic: %d lock-free hits, %d retries, %d fallbacks",
				def.OptimisticHits, def.OptimisticRetries, def.OptimisticFallbacks)
		}
		if len(def.PerShard) > 1 {
			line += "; per-shard reads:"
			for _, sh := range def.PerShard {
				line += fmt.Sprintf(" %d", sh.LogicalReads)
			}
		}
		fmt.Println(line)
	}
	s := rep.Sharing
	fmt.Printf("sharing: %d joins, %d trails, %d residual, %d cold; %d throttles (%v), %d fairness exemptions\n",
		s.JoinPlacements, s.TrailPlacements, s.ResidualPlacements, s.ColdPlacements,
		s.ThrottleEvents, s.ThrottleTime.Round(time.Millisecond), s.FairnessExemptions)
	if f := rep.Faults; f.Reads > 0 {
		fmt.Printf("faults: %d reads saw %d errors, %d latency spikes (%v), %d stalls, %d torn reads\n",
			f.Reads, f.InjectedErrors, f.LatencyEvents, f.InjectedLatency.Round(time.Millisecond), f.Stalls, f.TornReads)
		c := rep.Counters
		fmt.Printf("recovery: %d retries (%d timeouts), %d pages degraded, %d detaches / %d rejoins, %d prefetch failures\n",
			c.ReadRetries, c.ReadTimeouts, c.PagesFailed, c.ScanDetaches, c.ScanRejoins, c.PrefetchFailed)
	}
	if taken := sampler.Taken(); taken > 1 {
		samples := sampler.Samples()
		last := samples[len(samples)-1]
		rates := last.Delta(samples[0])
		fmt.Printf("telemetry: %d samples every %v; run avg %.0f pages/s, %.1f%% interval hit rate, throttle duty %.2f, max group gap %d pages\n",
			taken, sampler.Interval(), rates.PagesPerSec, 100*rates.HitRate, rates.ThrottleDuty, last.MaxGroupGap())
	}
	if obs.tracePath != "" {
		fmt.Printf("trace: wrote %s (%d events dropped)\n", obs.tracePath, tracer.Dropped())
	}
	if rec != nil {
		if asm := trace.Assemble(rec.Events()); len(asm.Trees) > 0 {
			fmt.Printf("\nspans: %d query trees (%d unclosed, %d orphans); scanshare-trace renders them from -rt-trace output\n",
				len(asm.Trees), asm.Unclosed, asm.Orphans)
			fmt.Print(trace.RenderBreakdown(asm.Aggregate(), len(asm.Trees)))
		}
	}
	if rec != nil && obs.timeline {
		evs := rec.Events()
		fmt.Printf("\ntimeline (%d events; %s):\n", len(evs), trace.SummarizeKinds(evs))
		fmt.Print(trace.RenderTimeline(evs))
	}

	return rep, nil
}
