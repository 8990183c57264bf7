package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"scanshare"
	"scanshare/internal/trace"
)

// options are the inputs of one repetition: the seed everything is generated
// from, the size class, and — in the traced pass only — the configuration
// variant to flip away from the defaults.
type options struct {
	seed    int64
	quick   bool // scale <= 1: the smoke size, for tests
	traced  bool
	variant string // "" = the defaults; see variantNames
}

// rep is one repetition of one workload: a fresh engine, one measured
// section, the oracle, the leak check. Workloads fill in the raw counts; the
// common code turns them into the metrics every workload shares.
type rep struct {
	opt      options
	workload string

	// Tracing state, nil in the end-to-end pass.
	spans  *spanLog
	tracer *trace.Tracer
	sink   *compactSink
	opOf   map[int64]issued // program trace ID -> the harness operation that caused it
	root   int64            // harness root span of the repetition

	metrics   map[string]float64
	notes     map[string]float64 // bases and sample counts printed beside the metrics
	progSpans []span             // the program's own spans, converted
	attempted int
	failed    int
	problems  []string

	setup   time.Duration
	before  sysSnap
	after   sysSnap
	logical int64 // pages delivered to queries in the measured section
	phys    int64 // physical page reads behind them; -1 when not counted
	baseGor int
}

// fail records failed operations with the reason; the run exits non-zero.
func (r *rep) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 8 {
		where := r.workload
		if r.opt.variant != "" {
			where += " variant " + r.opt.variant
		}
		r.problems = append(r.problems, where+": "+fmt.Sprintf(format, args...))
	}
}

func (r *rep) set(name string, v float64) { r.metrics[name] = v }

func (r *rep) note(name string, v float64) { r.notes[name] = v }

// programSpans keeps the program's assembled span trees for the span file.
func (r *rep) programSpans(asm *trace.Assembly) {
	if asm != nil {
		r.progSpans = programSpans(asm, r.sink, r.opOf)
	}
}

// sysSnap is a reading of the process-wide meters around a measured section.
type sysSnap struct {
	at  time.Time
	cpu time.Duration // rusage user+sys
	mem runtime.MemStats
}

func takeSnap() sysSnap {
	var s sysSnap
	runtime.ReadMemStats(&s.mem)
	s.cpu = cpuTime()
	s.at = time.Now()
	return s
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// resetPeakRSS collects, returns unused heap to the system and restarts the
// kernel's high-water mark, so that peak_rss_mb is the peak of this measured
// section alone: not the largest of all repetitions so far, and not the
// garbage of table loading, whose size depends on when the collector happened
// to run. Where the kernel refuses (not Linux, or /proc not writable) the mark
// keeps its process-lifetime meaning.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// timeSetup runs one set-up step (engine build, table load, server start)
// under a harness span and adds its duration to setup_s.
func (r *rep) timeSetup(name string, fn func() error) error {
	sp := r.spans.start(r.root, r.workload, name)
	t0 := time.Now()
	err := fn()
	r.setup += time.Since(t0)
	sp.end()
	return err
}

// beginMeasure starts the measured section. A collection first, so that each
// repetition's allocation, GC and memory figures start from the same heap.
func (r *rep) beginMeasure() {
	resetPeakRSS()
	r.before = takeSnap()
}

func (r *rep) endMeasure() { r.after = takeSnap() }

func (r *rep) wall() time.Duration { return r.after.at.Sub(r.before.at) }

// startTracing attaches the program's own span tracer with an in-memory
// sink, stamping on the harness span log's clock. The caller hands r.tracer
// to the program's public tracing option and calls stopTracing once the run
// has returned.
func (r *rep) startTracing() {
	r.tracer = trace.NewTracerSize(r.spans, 1<<17)
	r.sink = newCompactSink()
	r.tracer.Attach(r.sink)
	r.tracer.Start(time.Millisecond)
	r.opOf = make(map[int64]issued)
}

// stopTracing drains the journal and reports the program's critical-path
// breakdown, summed over every query of the repetition.
func (r *rep) stopTracing() *trace.Assembly {
	if r.tracer == nil {
		return nil
	}
	dropped := r.tracer.Dropped()
	_ = r.tracer.Close() // the sink's Close cannot fail
	asm := trace.Assemble(r.sink.journal())
	for _, c := range asm.Aggregate().Components() {
		name := c.Name
		if name == "pool-wait" {
			name = "pool_wait"
		}
		r.set("trace.breakdown."+name+"_s", c.Dur.Seconds())
	}
	r.set("trace.dropped", float64(dropped))
	return asm
}

// finish derives the metrics every workload shares from the raw counts, and
// runs the leak check: the goroutine count must return to what it was before
// the repetition started, or the whole repetition counts as failed.
func (r *rep) finish() {
	leaked := goroutinesAbove(r.baseGor)
	r.set("runtime.goroutines_leaked", float64(leaked))
	if leaked > 0 {
		r.fail(r.attempted-r.failed, "%d goroutines outlived the repetition", leaked)
	}

	wall, pages := r.wall().Seconds(), float64(r.logical)
	if pages <= 0 || wall <= 0 {
		r.fail(r.attempted-r.failed, "nothing measured: %d pages in %.3fs", r.logical, wall)
		pages, wall = 1, 1
	}
	m0, m1 := &r.before.mem, &r.after.mem
	r.set("setup_s", r.setup.Seconds())
	r.set("pages_per_s", pages/wall)
	r.set("cpu_us_per_page", float64((r.after.cpu-r.before.cpu).Microseconds())/pages)
	r.set("allocs_per_page", float64(m1.Mallocs-m0.Mallocs)/pages)
	r.set("peak_rss_mb", peakRSSMB())
	if r.phys >= 0 {
		r.set("phys_reads_per_logical_page", float64(r.phys)/pages)
		r.set("buffer.phys_reads_per_logical_page", float64(r.phys)/pages)
	}
	r.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC))
	r.set("runtime.gc_pause_total_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	r.set("runtime.bytes_per_page", float64(m1.TotalAlloc-m0.TotalAlloc)/pages)
	if r.attempted < 1 {
		r.attempted = 1
		r.fail(1, "no operation attempted")
	}
	r.set("failed_share", float64(r.failed)/float64(r.attempted))
}

// goroutinesAbove waits for goroutines that are already unwinding (closed
// connections, a stopped tracer) and returns how many remain above base. It
// runs after the measured section, so waiting here costs no metric anything.
func goroutinesAbove(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// poolMetrics reports the buffer layer from the pool counters the public API
// returns, and returns the physical reads: every miss that was filled,
// whether a scan or a prefetch worker led it.
func (r *rep) poolMetrics(p scanshare.PoolStats) int64 {
	r.set("buffer.hits", float64(p.Hits))
	r.set("buffer.misses", float64(p.Misses))
	r.set("buffer.evictions", float64(p.Evictions))
	r.set("buffer.hit_ratio", p.HitRatio())
	r.set("buffer.busy_retries", float64(p.BusyRetries))
	r.set("buffer.all_pinned", float64(p.AllPinned))
	r.set("buffer.evictions_high_prio_share", share(p.EvictionsByPriority[len(p.EvictionsByPriority)-1], p.Evictions))
	r.set("buffer.optimistic_hit_share", share(p.OptimisticHits, p.Hits))
	return p.Misses - p.Aborts
}

// sharingMetrics reports the core layer from the sharing manager's counters.
func (r *rep) sharingMetrics(s scanshare.SharingStats) {
	r.set("core.join_placements_share", share(s.JoinPlacements, s.ScansStarted))
	r.set("core.throttle_events", float64(s.ThrottleEvents))
	r.set("core.fairness_exemptions", float64(s.FairnessExemptions))
	r.set("core.progress_reports", float64(s.ProgressReports))
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// runRep executes one repetition of the named workload.
func runRep(name string, opt options) *rep {
	r := &rep{opt: opt, workload: name, metrics: make(map[string]float64), notes: make(map[string]float64),
		phys: -1, baseGor: runtime.NumGoroutine()}
	if opt.traced {
		r.spans = newSpanLog()
	}
	top := r.spans.start(0, name, "harness.repetition")
	r.root = top.id()
	var err error
	switch name {
	case wlSim:
		err = runSim(r)
	case wlShared, wlDisjoint:
		err = runRT(r)
	case wlServe:
		err = runServe(r)
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	top.end()
	if err != nil {
		r.attempted = max(r.attempted, 1)
		r.fail(r.attempted-r.failed, "%v", err)
	}
	r.finish()
	return r
}
