package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// minDriverReps is the fewest repetitions a driver run makes: set-up time is
// reported as a median, and a median needs several set-ups.
const minDriverReps = 3

// driverResult is the driver's result line.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun is one run as the driver makes it: one workload, and as the last
// line of standard output one JSON object. With tracing off it reports every
// gated end-to-end metric as the median over fresh-engine repetitions,
// repeating until at least `seconds` of measured time has passed. With
// tracing on it reports every per-layer metric from one traced repetition,
// the probes and (on rt_shared_agg) the configuration factorial; a metric
// that does not apply to the workload reads zero there, because the driver
// wants every name on every run. It returns the process's exit code.
func (h *harness) driverRun(name string, seconds int, traced bool) int {
	if whyOf(name) == "" {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", name)
		return 2
	}
	res := driverResult{Metrics: make(map[string]driverValue)}
	var problems []string
	if !traced {
		var reps []*rep
		var measured time.Duration
		for len(reps) < minDriverReps || measured < time.Duration(seconds)*time.Second {
			r := runRep(name, h.options())
			reps = append(reps, r)
			measured += r.wall()
			fmt.Fprintf(os.Stderr, "# %s rep %d: %.2fs measured, %.0f pages/s, %.4f cpu us/page, setup %.3fs, %d/%d failed\n",
				name, len(reps), r.wall().Seconds(), r.metrics["pages_per_s"], r.metrics["cpu_us_per_page"],
				r.metrics["setup_s"], r.failed, r.attempted)
		}
		res.Attempted, res.Failed, problems = tally(reps)
		for _, d := range gatedMetrics() {
			res.Metrics[d.Name] = driverValue{median(collect(reps, d.Name)), d.Unit}
		}
	} else {
		plain := runRep(name, h.options())
		w := &workloadDoc{E2E: summarize(name, []*rep{plain})}
		layers, ran := h.traced(name, plain.metrics["pages_per_s"], w)
		if err := h.ensureProbes(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		res.Attempted, res.Failed, problems = tally(append(ran, plain))
		problems = append(problems, w.Problems...)
		for _, d := range ungatedLayerMetrics() {
			v := layers[d.Name]
			if pv, ok := h.probes[d.Name]; ok {
				v = pv
			} else if s, ok := w.E2E[d.Name]; ok {
				v = s.Median
			}
			res.Metrics[d.Name] = driverValue{v, d.Unit}
		}
	}
	res.Correct = res.Failed == 0
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "problem:", p)
	}
	line, err := json.Marshal(&res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("%s\n", line)
	return 0
}

func (h *harness) ensureProbes() error {
	if h.probes != nil {
		return nil
	}
	probes, err := runProbes(h.seed, h.probeTime)
	if err != nil {
		return fmt.Errorf("layers pass: %w", err)
	}
	h.probes = probes
	return nil
}
