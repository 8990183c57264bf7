package scanshare_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"scanshare"
)

// TestRunRealtime runs concurrent goroutine scans through the engine and
// checks they read the right amount of data, coordinate through the SSM,
// and leave the engine's virtual-time machinery untouched.
func TestRunRealtime(t *testing.T) {
	eng, tbl := newEngine(t, 64, 4000)
	pages := tbl.NumPages()
	if pages < 20 {
		t.Fatalf("table too small (%d pages) to exercise sharing", pages)
	}

	scans := make([]scanshare.RealtimeScan, 6)
	for i := range scans {
		scans[i] = scanshare.RealtimeScan{
			Table:      tbl,
			StartDelay: time.Duration(i) * 200 * time.Microsecond,
			PageDelay:  10 * time.Microsecond,
		}
	}
	scans[4].StopAfterPages = 7

	rep, err := eng.RunRealtime(context.Background(), scanshare.RealtimeOptions{PrefetchWorkers: 2}, scans)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(scans) {
		t.Fatalf("%d results for %d scans", len(rep.Results), len(scans))
	}
	for i, res := range rep.Results {
		want := pages
		if s := scans[i].StopAfterPages; s > 0 && s < pages {
			want = s
			if !res.Stopped {
				t.Errorf("scan %d not marked stopped", i)
			}
		}
		if res.PagesRead != want {
			t.Errorf("scan %d read %d pages, want %d", i, res.PagesRead, want)
		}
		if res.Err != nil {
			t.Errorf("scan %d: %v", i, res.Err)
		}
	}
	if rep.Counters.ScansStarted != int64(len(scans)) || rep.Counters.ScansEnded != int64(len(scans)) {
		t.Errorf("collector scan counters: %+v", rep.Counters)
	}
	if rep.Sharing.ScansStarted != int64(len(scans)) || rep.Sharing.ScansFinished != int64(len(scans)) {
		t.Errorf("sharing stats unbalanced: %+v", rep.Sharing)
	}
	if rep.Sharing.JoinPlacements+rep.Sharing.TrailPlacements == 0 {
		t.Errorf("no shared placements across %d concurrent scans: %+v", len(scans), rep.Sharing)
	}
	if def, ok := rep.Pools[""]; !ok || def.LogicalReads == 0 {
		t.Errorf("default pool saw no activity: %+v", rep.Pools)
	}

	// The realtime run must not advance the virtual clock or disturb the
	// simulated device, so a virtual-time Run on the same engine still
	// works and starts at time zero.
	if now := eng.Now(); now != 0 {
		t.Errorf("virtual clock moved to %v during realtime run", now)
	}
	q := scanshare.NewQuery(tbl).CountAll()
	simRep, err := eng.Run(scanshare.Shared, []scanshare.Job{{Query: q}})
	if err != nil {
		t.Fatalf("virtual-time Run after realtime run: %v", err)
	}
	if simRep.Makespan <= 0 {
		t.Errorf("virtual-time run has non-positive makespan %v", simRep.Makespan)
	}
}

// TestRunRealtimeCancel checks graceful shutdown: cancelling the context
// stops every scan cleanly.
func TestRunRealtimeCancel(t *testing.T) {
	eng, tbl := newEngine(t, 64, 4000)
	scans := make([]scanshare.RealtimeScan, 4)
	for i := range scans {
		scans[i] = scanshare.RealtimeScan{Table: tbl, PageDelay: time.Millisecond}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	rep, err := eng.RunRealtime(ctx, scanshare.RealtimeOptions{}, scans)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range rep.Results {
		if !res.Stopped {
			t.Errorf("scan %d ran to completion despite cancel", i)
		}
	}
}

// TestRunRealtimeValidation covers the error paths.
func TestRunRealtimeValidation(t *testing.T) {
	eng, tbl := newEngine(t, 32, 200)
	other, _ := newEngine(t, 32, 200)
	ctx := context.Background()
	if _, err := eng.RunRealtime(ctx, scanshare.RealtimeOptions{}, nil); err == nil {
		t.Error("empty scan list accepted")
	}
	if _, err := eng.RunRealtime(ctx, scanshare.RealtimeOptions{}, []scanshare.RealtimeScan{{}}); err == nil {
		t.Error("scan without table accepted")
	}
	if _, err := other.RunRealtime(ctx, scanshare.RealtimeOptions{}, []scanshare.RealtimeScan{{Table: tbl}}); err == nil {
		t.Error("foreign table accepted")
	}
}

// TestRunRealtimePageReadDelayIsCancellable checks that the modelled
// transfer time of a physical read is a wait that ends with the run: a
// cancelled context and the read timeout both cut it, with and without a
// fault plan wrapped around the store.
func TestRunRealtimePageReadDelayIsCancellable(t *testing.T) {
	eng, tbl := newEngine(t, 64, 4000)
	noFault := &scanshare.FaultPlan{Seed: 1, Rules: []scanshare.FaultRule{
		{Kind: scanshare.FaultError, Table: tbl, FirstPage: tbl.NumPages() - 1, Prob: 1},
	}}
	for _, tc := range []struct {
		name    string
		faults  *scanshare.FaultPlan
		timeout time.Duration
	}{
		{"cancel", nil, 0},
		{"cancel/faults", noFault, 0},
		{"timeout", nil, 20 * time.Millisecond},
		{"timeout/faults", noFault, 20 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.timeout == 0 {
				time.AfterFunc(20*time.Millisecond, cancel)
			}
			opts := scanshare.RealtimeOptions{PageReadDelay: 2 * time.Second, Faults: tc.faults, ReadTimeout: tc.timeout}
			start := time.Now()
			rep, err := eng.RunRealtime(ctx, opts, []scanshare.RealtimeScan{{Table: tbl}})
			if took := time.Since(start); took >= time.Second {
				t.Fatalf("RunRealtime returned after %v; the page-read delay was not cut", took)
			}
			if tc.timeout > 0 {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("err = %v, want the read timeout", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res := rep.Results[0]; !res.Stopped {
				t.Errorf("cancelled scan not reported stopped: %+v", res)
			}
		})
	}
}
