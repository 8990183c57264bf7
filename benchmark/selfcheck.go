package main

import (
	"fmt"
	"os"
	"slices"
)

// checkRow is one metric x workload comparison of two sets of runs of the
// same code.
type checkRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	// Worse is how much worse set B's median is than set A's, as a share of
	// A's (negative: better). Spread is the wider of the two sets'
	// interquartile distances, as a share of the median.
	Worse   float64 `json:"worse"`
	Spread  float64 `json:"spread"`
	Bound   float64 `json:"bound"`
	Verdict string  `json:"verdict"` // ok, unresolved or FAIL
}

// judge compares two sets of samples of one metric. The code did not change
// between the sets, so a difference beyond the bound means the bound is
// tighter than the benchmark's own noise: FAIL. When the quartile spread
// within a set is already wider than the bound, the medians cannot resolve a
// change of that size either way: unresolved.
func judge(d metricDef, a, b []float64) checkRow {
	row := checkRow{Metric: d.Name, MedianA: median(a), MedianB: median(b), Bound: d.Bound}
	row.Spread = max(spreadShare(a), spreadShare(b))
	switch {
	case row.MedianA == 0:
		if row.MedianB != 0 {
			row.Worse = 1
		}
	case d.Better == "lower":
		row.Worse = (row.MedianB - row.MedianA) / row.MedianA
	default:
		row.Worse = (row.MedianA - row.MedianB) / row.MedianA
	}
	switch {
	case d.Bound == 0:
		// An exact metric (failed_share): any sample off the median is a FAIL.
		row.Verdict = "ok"
		for _, x := range slices.Concat(a, b) {
			if x != row.MedianA {
				row.Verdict = "FAIL"
			}
		}
	case row.Spread > d.Bound:
		row.Verdict = "unresolved"
	case row.Worse > d.Bound:
		row.Verdict = "FAIL"
	default:
		row.Verdict = "ok"
	}
	return row
}

// selfcheck runs the end-to-end pass twice in one invocation and reports, per
// metric and workload, whether the two sets agree within the metric's bound.
func (h *harness) selfcheck(names []string, reps int) ([]checkRow, bool) {
	ok := true
	var rows []checkRow
	fmt.Fprintf(os.Stderr, "\n%-16s %-30s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "spread", "bound", "verdict")
	for _, n := range names {
		a, b := h.repeat(n, reps), h.repeat(n, reps)
		for _, set := range [][]*rep{a, b} {
			if _, failed, _ := tally(set); failed > 0 {
				ok = false
			}
		}
		for _, d := range e2eMetrics {
			if !d.appliesTo(n) {
				continue
			}
			row := judge(d, collect(a, d.Name), collect(b, d.Name))
			row.Workload = n
			rows = append(rows, row)
			ok = ok && row.Verdict != "FAIL"
			fmt.Fprintf(os.Stderr, "%-16s %-30s %12.6g %12.6g %+8.4f %8.4f %8.4f  %s\n",
				n, d.Name, row.MedianA, row.MedianB, row.Worse, row.Spread, row.Bound, row.Verdict)
		}
	}
	return rows, ok
}
