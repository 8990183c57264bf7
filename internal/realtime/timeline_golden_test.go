package realtime

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"scanshare/internal/buffer"
	"scanshare/internal/core"
	"scanshare/internal/disk"
	"scanshare/internal/fault"
	"scanshare/internal/trace"
)

// goldenTimelineScript replays the chaos script shape with a Tracer wired
// into all three layers — manager decisions, pool evictions, runner page
// failures — and renders the merged journal as a timeline. Everything is
// stamped with the KernelEnv's virtual clock and the kernel runs one worker
// at a time, so the ring arrival order (and therefore the stable-sorted
// timeline) is a pure function of the seeds.
func goldenTimelineScript(t *testing.T) (string, *trace.Recorder) {
	t.Helper()
	const (
		tablePages = 100
		poolPages  = 64
		scans      = 4
	)
	plan := fault.Plan{
		Seed: 11,
		Rules: []fault.Rule{
			{Kind: fault.KindError, FirstPage: 70, LastPage: 72, Prob: 1},
			{Kind: fault.KindStall, FirstPage: 20, LastPage: 30, Prob: 0.3, UntilAttempt: 1},
			{Kind: fault.KindError, Prob: 0.1, UntilAttempt: 2},
			{Kind: fault.KindLatency, Prob: 0.15, Latency: 250 * time.Microsecond},
		},
	}
	store := fault.MustNewStore(testStore{pageBytes: 16}, plan)

	env := NewKernelEnv(23, 400*time.Microsecond)

	tracer := trace.NewTracerSize(env, 1<<16)
	rec := new(trace.Recorder)
	tracer.Attach(rec)

	pool := buffer.MustNewPool(poolPages)
	pool.SetTracer(tracer)
	mgr := core.MustNewManager(testManagerConfig(poolPages))
	mgr.SetOnEvent(trace.ManagerObserver(tracer))

	r, err := NewRunner(Config{
		Pool:                  pool,
		Manager:               mgr,
		Store:                 store,
		Env:                   env,
		Tracer:                tracer,
		ReadTimeout:           time.Millisecond,
		MaxReadRetries:        3,
		DetachAfterFailures:   2,
		ContinueOnPageFailure: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	specs := make([]ScanSpec, scans)
	for i := range specs {
		specs[i] = ScanSpec{
			Table:             1,
			TablePages:        tablePages,
			PageID:            func(pageNo int) disk.PageID { return disk.PageID(pageNo) },
			EstimatedDuration: time.Duration(4+i) * time.Millisecond,
			StartDelay:        time.Duration(i) * 800 * time.Microsecond,
			PageDelay:         time.Duration(40+10*i) * time.Microsecond,
		}
	}
	specs[3].StartPage, specs[3].EndPage = 10, 90
	// The last scan processes a page in 800µs, slow enough to fall past the
	// throttle threshold behind leaders that pay for the reads: in virtual
	// time a faster trailer rides the leaders' reads and keeps the group in
	// lockstep, and the timeline would show no throttle-wait.
	specs[3].PageDelay = 800 * time.Microsecond

	if _, err := r.Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	pool.CheckInvariants()
	tracer.Flush()
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	if tracer.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d events; enlarge the ring", tracer.Dropped())
	}

	evs := rec.Events()
	out := fmt.Sprintf("# golden timeline: 4 scans, fault plan seed 11, kernel seed 23\n# %s\n\n%s",
		trace.SummarizeKinds(evs), trace.RenderTimeline(evs))
	return out, rec
}

// TestGoldenTimeline replays the instrumented chaos script and checks the
// journal two ways: structurally (the run must exhibit every event class the
// observability layer exists to capture) and byte-for-byte against
// testdata/timeline.golden. Regenerate with
//
//	go test ./internal/realtime -run TestGoldenTimeline -update
//
// and review the diff like code: it IS the observable decision record.
func TestGoldenTimeline(t *testing.T) {
	got, rec := goldenTimelineScript(t)

	for _, want := range []trace.Kind{
		trace.KindScanStart,
		trace.KindGroupForm,
		trace.KindGroupMerge,
		trace.KindThrottleWait,
		trace.KindEvict,
		trace.KindDetach,
		trace.KindRejoin,
		trace.KindPageFailed,
		trace.KindScanEnd,
	} {
		if rec.CountKind(want) == 0 {
			t.Errorf("timeline has no %v event", want)
		}
	}
	// The trailer's wake is what a loaded pool victimizes: at least one
	// eviction must have taken a page released at evict/low priority.
	lowVictims := 0
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindEvict && ev.Prio <= int8(buffer.PriorityLow) {
			lowVictims++
		}
	}
	if lowVictims == 0 {
		t.Error("no eviction victimized an evict/low-priority page")
	}

	path := filepath.Join("testdata", "timeline.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("timeline diverged from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}

	// The script must also replay itself within the same process.
	if again, _ := goldenTimelineScript(t); again != got {
		t.Error("back-to-back runs of the timeline script diverged in-process")
	}
}
