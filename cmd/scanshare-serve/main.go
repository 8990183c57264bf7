// Command scanshare-serve runs the multi-tenant scan service: a long-lived
// TCP server that accepts SQL requests over a length-prefixed JSON protocol,
// admits them through per-tenant bounded queues with concurrency caps and
// weighted round-robin dispatch, and executes admitted scans through the
// shared buffer pools so concurrent clients benefit from the paper's scan
// grouping and throttling.
//
//	scanshare-serve -addr :7070 -tenants 'acme:4:8:2,beta:2:4:1' -scale 1
//
// Each -tenants entry is name:concurrency:queue-depth:weight (later fields
// optional). The workload table "rt" is generated from -seed at startup by
// experiments.RTEngine, which scanshare-bench's realtime mode also calls.
// With -http the server also exposes expvar, pprof, and Prometheus /metrics
// with per-tenant admission families.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"scanshare"
	"scanshare/internal/experiments"
	"scanshare/internal/metrics"
	"scanshare/internal/server"
	"scanshare/internal/telemetry"
	"scanshare/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	p := experiments.DefaultParams()
	addr := flag.String("addr", "127.0.0.1:7070", "listen address for the scan service")
	httpAddr := flag.String("http", "", "serve expvar, pprof, and /metrics introspection on this address")
	tenantSpec := flag.String("tenants", "alpha:2:4:1,beta:2:4:1", "comma-separated tenant specs name:concurrency[:queue-depth[:weight]]")
	globalCap := flag.Int("max-concurrent", 0, "global concurrent request cap (0 = sum of tenant caps)")
	shards := flag.Int("pool-shards", 4, "lock-striped buffer pool shard count")
	policy := flag.String("pool-policy", "", "buffer pool replacement policy: priority-lru (default) or predictive")
	translation := flag.String("pool-translation", "", "buffer pool page translation: map (default) or array")
	pageDelay := flag.Duration("pagedelay", 50*time.Microsecond, "per-page processing delay charged to every scan")
	readDelay := flag.Duration("readdelay", 200*time.Microsecond, "per-physical-read device delay")
	sampleEvery := flag.Duration("sample-every", time.Second, "telemetry sampling interval (0 = off)")
	tracePath := flag.String("trace", "", "write every request's span tree as a JSONL trace journal to this file (render with scanshare-trace)")
	flightDir := flag.String("flight-dir", "", "arm the flight recorder; dumps land in this directory on SIGQUIT or SLO breach")
	sloQueueP99 := flag.Duration("slo-queue-p99", 0, "dump the flight record when any tenant's p99 queue wait reaches this (0 = off; needs -flight-dir)")
	flag.Float64Var(&p.Scale, "scale", p.Scale, "workload table scale factor")
	flag.Int64Var(&p.Seed, "seed", p.Seed, "workload table generation seed")
	flag.Float64Var(&p.BufferFrac, "buffer", p.BufferFrac, "buffer pool as a fraction of the table")
	flag.Parse()

	tenants, err := parseTenants(*tenantSpec)
	if err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return err
	}

	if *sloQueueP99 > 0 && *flightDir == "" {
		return fmt.Errorf("-slo-queue-p99 needs -flight-dir for somewhere to dump")
	}

	eng, tbl, poolPages, err := experiments.RTEngine(p, *shards, *policy, *translation)
	if err != nil {
		return err
	}

	// Tracing: the JSONL journal is what scanshare-trace renders; the
	// bounded in-memory recorder gives flight dumps their event tail.
	var tracer *trace.Tracer
	var rec *trace.Recorder
	var traceFile *os.File
	if *tracePath != "" || *flightDir != "" {
		tracer = trace.NewTracer(nil)
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				return err
			}
			traceFile = f
			tracer.Attach(trace.NewJSONLSink(f))
		}
		if *flightDir != "" {
			rec = &trace.Recorder{Cap: 1 << 14}
			tracer.Attach(rec)
		}
		tracer.Start(20 * time.Millisecond)
	}

	col := new(metrics.Collector)
	srv, err := server.New(server.Config{
		Engine:        eng,
		Tenants:       tenants,
		MaxConcurrent: *globalCap,
		PageDelay:     *pageDelay,
		Tracer:        tracer,
		Realtime: scanshare.RealtimeOptions{
			PageReadDelay: *readDelay,
			Collector:     col,
		},
	})
	if err != nil {
		return err
	}
	if err := srv.Serve(*addr); err != nil {
		return err
	}
	fmt.Printf("scanshare-serve: listening on %s — table rt (%d pages), pool %d pages, %d tenants\n",
		srv.Addr(), tbl.NumPages(), poolPages, len(tenants))
	for _, t := range tenants {
		fmt.Printf("  tenant %s: concurrency %d, queue depth %d, weight %d\n",
			t.Name, t.MaxConcurrent, t.MaxQueueDepth, t.Weight)
	}

	sources := eng.TelemetrySources(col)
	sources.Tenants = srv.TenantStats
	sampler := telemetry.NewSampler(sources, *sampleEvery, 0)
	if *sampleEvery > 0 {
		sampler.Start()
		defer sampler.Stop()
	}

	sloDone := make(chan struct{})
	if *flightDir != "" {
		flight := &telemetry.FlightRecorder{
			Sampler:      sampler,
			Dir:          *flightDir,
			QueueWaitSLO: *sloQueueP99,
			Tenants:      srv.TenantStats,
		}
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
		// SIGQUIT dumps on demand; the SLO poller dumps automatically the
		// first time a tenant's p99 queue wait crosses the threshold.
		quitCh := make(chan os.Signal, 1)
		signal.Notify(quitCh, syscall.SIGQUIT)
		stopSLO := make(chan struct{})
		go func() {
			defer close(sloDone)
			every := *sampleEvery
			if every <= 0 {
				every = time.Second
			}
			ticker := time.NewTicker(every)
			defer ticker.Stop()
			for {
				select {
				case <-quitCh:
					dumpFlight("sigquit")
				case <-ticker.C:
					paths, err := flight.CheckSLO()
					if err != nil {
						fmt.Fprintln(os.Stderr, "flight recorder:", err)
					}
					for _, p := range paths {
						fmt.Fprintf(os.Stderr, "flight record (slo breach): %s\n", p)
					}
				case <-stopSLO:
					return
				}
			}
		}()
		defer func() { signal.Stop(quitCh); close(stopSLO); <-sloDone }()
	} else {
		close(sloDone)
	}
	if *httpAddr != "" {
		telemetry.PublishExpvar("scanshare_pools", func() any { return eng.PoolStats() })
		telemetry.PublishExpvar("scanshare_tenants", func() any { return srv.TenantStats() })
		isrv, err := telemetry.StartIntrospection(*httpAddr, telemetry.NewDebugMux(&sources))
		if err != nil {
			return err
		}
		fmt.Printf("introspection: expvar, pprof, and /metrics on http://%s\n", isrv.Addr())
		defer func() {
			sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer scancel()
			isrv.Shutdown(sctx)
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Println("\nscanshare-serve: shutting down")
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			return fmt.Errorf("trace sink: %w", err)
		}
		if traceFile != nil {
			if err := traceFile.Close(); err != nil {
				return err
			}
			fmt.Printf("trace: wrote %s (%d events dropped)\n", *tracePath, tracer.Dropped())
		}
	}
	for _, st := range srv.TenantStats() {
		fmt.Printf("  %s\n", st)
	}
	return nil
}

// parseTenants decodes "name:concurrency[:queue-depth[:weight]]" specs.
func parseTenants(spec string) ([]server.TenantConfig, error) {
	var out []server.TenantConfig
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) > 4 || parts[0] == "" {
			return nil, fmt.Errorf("bad tenant spec %q (want name:concurrency[:queue-depth[:weight]])", entry)
		}
		cfg := server.TenantConfig{Name: parts[0], MaxConcurrent: 2, MaxQueueDepth: 4, Weight: 1}
		for i, dst := range []*int{&cfg.MaxConcurrent, &cfg.MaxQueueDepth, &cfg.Weight} {
			if len(parts) <= i+1 {
				break
			}
			n, err := strconv.Atoi(parts[i+1])
			if err != nil {
				return nil, fmt.Errorf("bad tenant spec %q: %v", entry, err)
			}
			*dst = n
		}
		out = append(out, cfg)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no tenants in spec %q", spec)
	}
	return out, nil
}
