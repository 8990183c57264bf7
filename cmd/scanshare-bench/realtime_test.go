package main

import (
	"testing"
	"time"

	"scanshare/internal/experiments"
)

// TestRunRealtimeErrorsScenario drives the -realtime mode end to end at a
// tiny scale: four scans of the ten-page rt table under the "errors" fault
// scenario with the timeline on. The other knobs are the flag defaults; the
// fault probability is raised so that ten pages see errors. Every scan must
// read the whole table, and the retries must absorb every injected error, so
// no page is degraded.
func TestRunRealtimeErrorsScenario(t *testing.T) {
	p := experiments.DefaultParams()
	p.Scale = 0.1
	faults := rtFaultFlags{
		scenario:    "errors",
		prob:        0.3,
		seed:        1,
		readTimeout: 5 * time.Millisecond,
		retries:     4,
		detachAfter: 3,
	}
	const scans = 4
	rep, err := runRealtime(p, scans, 4, 1, "", "", false,
		50*time.Microsecond, 200*time.Microsecond, faults, rtObsFlags{timeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != scans {
		t.Fatalf("%d results for %d scans", len(rep.Results), scans)
	}
	_, tbl, _, err := experiments.RTEngine(p, 1, "", "")
	if err != nil {
		t.Fatal(err)
	}
	pages := tbl.NumPages()
	for _, res := range rep.Results {
		if res.Err != nil || res.Stopped {
			t.Errorf("scan %d did not complete: err %v, stopped %v", res.Scan, res.Err, res.Stopped)
		}
		if res.PagesRead != pages || res.DegradedPages != 0 {
			t.Errorf("scan %d read %d pages (%d degraded), want %d and none degraded",
				res.Scan, res.PagesRead, res.DegradedPages, pages)
		}
	}
	if rep.Faults.InjectedErrors == 0 {
		t.Error("the errors scenario injected no errors")
	}
}
