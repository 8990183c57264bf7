// Command benchmark is the repository's benchmark: four fixed, seeded
// workloads at the paper's regime (pool = 5% of the data), driven through the
// program's public entry points with no artificial sleeps and no variant knob
// set, every answer checked against an oracle. See README.md.
//
// Two ways in:
//
//	bash benchmark/run.sh                     all passes, all workloads
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The second form is the driver's: one workload, one JSON result line last.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "", "driver mode: run this one workload and print one JSON result line")
		seed      = flag.Int64("seed", 42, "seed for data generation and request mixes")
		seconds   = flag.Int("seconds", runSeconds, "driver mode: measure for at least this long")
		traceFlag = flag.Int("trace", 0, "driver mode: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics, traced")
		reps      = flag.Int("reps", 5, "end-to-end pass: independent repetitions per workload")
		passes    = flag.String("passes", "e2e,layers,traced", "passes to run, in this order: e2e, layers, traced")
		only      = flag.String("workloads", "", "comma-separated workloads to run (default: all four)")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end pass twice and compare the two sets against the bounds")
		quick     = flag.Bool("quick", false, "smoke size: scale <= 1, one repetition")
		outDir    = flag.String("out", filepath.Join("benchmark", "out"), "directory for span files")
		probeTime = flag.Duration("probetime", 150*time.Millisecond, "layers pass: time per probe")
		printMan  = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the metric registry, and exit")
	)
	flag.Parse()
	if *printMan {
		os.Stdout.Write(manifestJSON())
		return
	}
	h := &harness{seed: *seed, quick: *quick, outDir: *outDir, probeTime: *probeTime}
	if *workload != "" {
		os.Exit(h.driverRun(*workload, *seconds, *traceFlag == 1))
	}

	names, err := selectWorkloads(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *quick {
		*reps = 1
	}
	ok := true
	doc := document{Env: h.env(), Workloads: map[string]*workloadDoc{}}
	for _, n := range names {
		doc.Workloads[n] = &workloadDoc{Why: whyOf(n)}
	}
	if *selfcheck {
		doc.Selfcheck, ok = h.selfcheck(names, *reps)
	} else {
		for _, pass := range strings.Split(*passes, ",") {
			switch strings.TrimSpace(pass) {
			case "e2e":
				ok = h.e2ePass(&doc, names, *reps) && ok
			case "layers":
				ok = h.layersPass(&doc) && ok
			case "traced":
				ok = h.tracedPass(&doc, names) && ok
			default:
				fmt.Fprintf(os.Stderr, "unknown pass %q\n", pass)
				os.Exit(2)
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&doc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

func whyOf(name string) string {
	for _, w := range workloads {
		if w.Name == name {
			return w.Why
		}
	}
	return ""
}

func selectWorkloads(list string) ([]string, error) {
	var names []string
	if list == "" {
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		return names, nil
	}
	for _, n := range strings.Split(list, ",") {
		n = strings.TrimSpace(n)
		if whyOf(n) == "" {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		names = append(names, n)
	}
	return names, nil
}

// harness carries what every pass needs.
type harness struct {
	seed      int64
	quick     bool
	outDir    string
	probeTime time.Duration
	probes    map[string]float64 // layers-pass results, once run
}

// document is the JSON the all-passes mode prints on stdout.
type document struct {
	Env       envDoc                  `json:"env"`
	Workloads map[string]*workloadDoc `json:"workloads"`
	Probes    map[string]float64      `json:"probes,omitempty"`
	Selfcheck []checkRow              `json:"selfcheck,omitempty"`
}

type envDoc struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	Seed       int64  `json:"seed"`
	Clients    int    `json:"C"`
	Quick      bool   `json:"quick,omitempty"`
}

type workloadDoc struct {
	Why       string             `json:"why"`
	E2E       map[string]summary `json:"e2e,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	SelfTimeS map[string]float64 `json:"harness_self_time_s,omitempty"`
	Notes     map[string]float64 `json:"notes,omitempty"`
	SpansFile string             `json:"spans_file,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
}

// summary is one end-to-end metric over the repetitions of one workload.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func (h *harness) env() envDoc {
	return envDoc{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitRev: gitRev(), Seed: h.seed, Clients: serveClients(), Quick: h.quick,
	}
}

// gitRev reads the checked-out commit without running git: the driver's
// checkout is not a repository, and then the revision is simply unknown.
func gitRev() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref)))
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(b))
	}
	if len(s) > 12 {
		s = s[:12]
	}
	return s
}

func (h *harness) options() options { return options{seed: h.seed, quick: h.quick} }

// collect gathers one metric's value from each repetition that reported it.
func collect(reps []*rep, name string) []float64 {
	var xs []float64
	for _, r := range reps {
		if v, ok := r.metrics[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

func tally(reps []*rep) (attempted, failed int, problems []string) {
	for _, r := range reps {
		attempted += r.attempted
		failed += r.failed
		problems = append(problems, r.problems...)
	}
	return
}

// summarize reduces the repetitions to a median and quartiles per end-to-end
// metric that applies to the workload.
func summarize(wl string, reps []*rep) map[string]summary {
	out := make(map[string]summary)
	for _, d := range e2eMetrics {
		if !d.appliesTo(wl) {
			continue
		}
		xs := collect(reps, d.Name)
		if len(xs) == 0 {
			continue
		}
		q1, q3 := quartiles(xs)
		out[d.Name] = summary{median(xs), q1, q3, len(xs), d.Unit, d.Better, d.Bound}
	}
	return out
}

// e2ePass is the end-to-end pass: tracing off, several independent
// repetitions per workload, each on a fresh engine.
func (h *harness) e2ePass(doc *document, names []string, reps int) bool {
	ok := true
	for _, n := range names {
		rs := h.repeat(n, reps)
		w := doc.Workloads[n]
		w.E2E = summarize(n, rs)
		w.Notes = rs[len(rs)-1].notes
		_, failed, problems := tally(rs)
		w.Problems = append(w.Problems, problems...)
		ok = ok && failed == 0
		printE2E(n, w.E2E)
		printSorted(w.Notes, func(string) string { return "(note)" })
	}
	return ok
}

func (h *harness) repeat(name string, reps int) []*rep {
	rs := make([]*rep, reps)
	for i := range rs {
		rs[i] = runRep(name, h.options())
		fmt.Fprintf(os.Stderr, "# %s rep %d/%d: %.0f pages/s, setup %.2fs, %d/%d failed\n", name, i+1, reps,
			rs[i].metrics["pages_per_s"], rs[i].metrics["setup_s"], rs[i].failed, rs[i].attempted)
	}
	return rs
}

// layersPass runs the isolated probes.
func (h *harness) layersPass(doc *document) bool {
	if err := h.ensureProbes(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return false
	}
	doc.Probes = h.probes
	fmt.Fprintln(os.Stderr, "\nlayers pass (isolated probes)")
	printSorted(h.probes, unitOf)
	return true
}

// tracedPass runs one traced repetition per workload: the harness's spans
// around every call it makes into a layer, plus the program's span tracer.
// The configuration factorial and the reconciliation line ride on
// rt_shared_agg.
func (h *harness) tracedPass(doc *document, names []string) bool {
	ok := true
	for _, n := range names {
		w := doc.Workloads[n]
		untraced := 0.0
		if s, have := w.E2E["pages_per_s"]; have {
			untraced = s.Median
		}
		layers, ran := h.traced(n, untraced, w)
		w.Layers = layers
		_, failed, problems := tally(ran)
		w.Problems = append(w.Problems, problems...)
		ok = ok && failed == 0
		fmt.Fprintf(os.Stderr, "\n%s: traced pass (spans in %s)\n", n, w.SpansFile)
		printSorted(layers, unitOf)
		if n == wlShared {
			fmt.Fprintln(os.Stderr, "  reconciliation inputs:")
			printSorted(w.Notes, func(string) string { return "s" })
		}
		fmt.Fprintln(os.Stderr, "  harness self time by layer:")
		printSorted(w.SelfTimeS, func(string) string { return "s" })
	}
	return ok
}

// traced runs the traced repetition of one workload and returns its per-layer
// metrics and every repetition it ran. untracedPPS is the end-to-end pass's
// pages_per_s; without one, an untraced repetition supplies it.
func (h *harness) traced(name string, untracedPPS float64, w *workloadDoc) (map[string]float64, []*rep) {
	var ran []*rep
	if untracedPPS == 0 {
		r := runRep(name, h.options())
		untracedPPS, ran = r.metrics["pages_per_s"], append(ran, r)
	}
	opt := h.options()
	opt.traced = true
	r := runRep(name, opt)
	ran = append(ran, r)

	layers := make(map[string]float64)
	for _, d := range layerMetrics {
		if v, have := r.metrics[d.Name]; have && d.appliesTo(name) {
			layers[d.Name] = v
		}
	}
	if d, _ := lookupMetric("trace.overhead_share"); untracedPPS > 0 && d.appliesTo(name) {
		layers["trace.overhead_share"] = 1 - r.metrics["pages_per_s"]/untracedPPS
	}

	own := r.spans.all()
	if err := os.MkdirAll(h.outDir, 0o755); err == nil {
		path := filepath.Join(h.outDir, "spans-"+name+".jsonl")
		if err := writeSpans(path, append(own[:len(own):len(own)], r.progSpans...)); err != nil {
			w.Problems = append(w.Problems, "writing spans: "+err.Error())
		} else {
			w.SpansFile = path
		}
	}
	w.SelfTimeS = make(map[string]float64)
	for layer, d := range selfTimes(own) {
		w.SelfTimeS[layer] = d.Seconds()
	}

	if name == wlShared {
		ran = append(ran, h.factorial(layers)...)
		h.reconcile(layers, w, float64(r.logical))
	}
	return layers, ran
}

// factorial reruns rt_shared_agg's inputs once per configuration variant,
// rows still checked against the oracle.
func (h *harness) factorial(layers map[string]float64) []*rep {
	var ran []*rep
	for _, v := range variantNames {
		opt := h.options()
		opt.variant = v
		r := runRep(wlShared, opt)
		ran = append(ran, r)
		layers["variant."+v+".pages_per_s"] = r.metrics["pages_per_s"]
		layers["variant."+v+".phys_reads_per_logical_page"] = r.metrics["phys_reads_per_logical_page"]
	}
	return ran
}

// reconcile sets the traced counts times the probes' per-operation costs —
// a pool hit or miss cycle per pool access, a fold per page delivered, a
// progress report per extent — against the time the program's span breakdown
// leaves unattributed to waits (process + fold) on rt_shared_agg. Far from 1,
// the probes and the breakdown disagree about where the time goes.
func (h *harness) reconcile(layers map[string]float64, w *workloadDoc, pages float64) {
	if err := h.ensureProbes(); err != nil {
		w.Problems = append(w.Problems, "reconcile: "+err.Error())
		return
	}
	measured := layers["trace.breakdown.process_s"] + layers["trace.breakdown.fold_s"]
	if measured <= 0 {
		return
	}
	parts := map[string]float64{
		"reconcile.pool_hit_s":  layers["buffer.hits"] * h.probes["buffer.acquire_hit_release_ns.map"] / 1e9,
		"reconcile.pool_miss_s": layers["buffer.misses"] * h.probes["buffer.miss_fill_evict_ns"] / 1e9,
		"reconcile.fold_s":      pages * h.probes["exec.group_by_page_ns.private"] / 1e9,
		"reconcile.report_s":    layers["core.progress_reports"] * h.probes["core.report_progress_ns"] / 1e9,
	}
	explained := 0.0
	if w.Notes == nil {
		w.Notes = make(map[string]float64)
	}
	for k, v := range parts {
		explained += v
		w.Notes[k] = v
	}
	w.Notes["reconcile.measured_process_plus_fold_s"] = measured
	share := explained / measured
	layers["reconcile.process_explained_share"] = share
	if share < 0.7 || share > 1.3 {
		w.Problems = append(w.Problems, fmt.Sprintf(
			"reconcile: probes explain %.2f of the breakdown's process+fold time (outside 0.7-1.3)", share))
	}
}

// lookupMetric finds a metric's declaration by name.
func lookupMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{e2eMetrics, layerMetrics} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

func unitOf(name string) string {
	d, _ := lookupMetric(name)
	return d.Unit
}

func printE2E(name string, e2e map[string]summary) {
	fmt.Fprintf(os.Stderr, "\n%s: end to end (median [q1, q3] over n)\n", name)
	for _, d := range e2eMetrics {
		if s, ok := e2e[d.Name]; ok {
			fmt.Fprintf(os.Stderr, "  %-30s %14.6g %-6s [%.6g, %.6g] n=%d  bound %.3g %s\n",
				d.Name, s.Median, s.Unit, s.Q1, s.Q3, s.N, s.Bound, s.Better)
		}
	}
}

func printSorted(m map[string]float64, unit func(string) string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-48s %14.6g %s\n", n, m[n], unit(n))
	}
}
