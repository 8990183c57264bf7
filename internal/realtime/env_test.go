package realtime

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"scanshare/internal/buffer"
	"scanshare/internal/core"
	"scanshare/internal/disk"
	"scanshare/internal/heap/heaptest"
	"scanshare/internal/trace"
)

// TraceStep is one hook a worker passed in a KernelEnv run: worker scan
// reached site when the virtual clock read Now.
type TraceStep struct {
	Scan int
	Site Site
	Now  time.Duration
}

// String renders the step compactly, e.g. "12.5ms scan3 report".
func (s TraceStep) String() string {
	return fmt.Sprintf("%v scan%d %s", s.Now, s.Scan, s.Site)
}

// FormatTrace renders a trace one step per line, for failure reports and
// goldens.
func FormatTrace(steps []TraceStep) string {
	var b strings.Builder
	for _, st := range steps {
		b.WriteString(st.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// stepRecorder returns a Hook that records every site the workers of a
// KernelEnv run pass, and the recorded schedule. The kernel runs one worker
// at a time, so the append needs no lock — and -race checks that claim.
func stepRecorder(env *KernelEnv) (Hook, *[]TraceStep) {
	steps := new([]TraceStep)
	return func(scan int, site Site) {
		*steps = append(*steps, TraceStep{Scan: scan, Site: site, Now: env.Now()})
	}, steps
}

// perturbedRun executes one KernelEnv run with the given seed and returns
// the schedule plus the manager's decision-event trace.
func perturbedRun(t *testing.T, seed int64) ([]TraceStep, []core.Event) {
	t.Helper()
	const (
		tablePages = 160
		poolPages  = 96
		scans      = 6
	)
	pool := buffer.MustNewPool(poolPages)
	mgr := core.MustNewManager(testManagerConfig(poolPages))

	// The kernel serializes workers, so the unsynchronized append is safe.
	var events []core.Event
	mgr.SetOnEvent(func(ev core.Event) { events = append(events, ev) })

	env := NewKernelEnv(seed, 500*time.Microsecond)
	hook, steps := stepRecorder(env)
	r, err := NewRunner(Config{
		Pool:    pool,
		Manager: mgr,
		Store:   testStore{pageBytes: 16},
		Env:     env,
		Hook:    hook,
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
			EstimatedDuration: time.Duration(5+i) * time.Millisecond,
			StartDelay:        time.Duration(i) * time.Millisecond,
			PageDelay:         time.Duration(50+10*(i%3)) * time.Microsecond,
		}
	}
	specs[2].StopAfterPages = 40
	specs[4].StartPage, specs[4].EndPage = 30, 130

	if _, err := r.Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if n := mgr.ActiveScans(); n != 0 {
		t.Fatalf("seed %d: %d scans leaked", seed, n)
	}
	pool.CheckInvariants()
	return *steps, events
}

// TestKernelEnvReplaysSeed is the replay environment's core guarantee: the
// same seed replays to an identical schedule and an identical manager
// decision trace — timestamps included, since the clock is virtual — while
// different seeds explore different interleavings.
func TestKernelEnvReplaysSeed(t *testing.T) {
	trace1, events1 := perturbedRun(t, 42)
	trace2, events2 := perturbedRun(t, 42)
	if len(trace1) == 0 {
		t.Fatal("empty schedule trace")
	}
	if !reflect.DeepEqual(trace1, trace2) {
		t.Errorf("seed 42 did not replay: traces diverge\nfirst:\n%s\nsecond:\n%s",
			FormatTrace(trace1), FormatTrace(trace2))
	}
	if !reflect.DeepEqual(events1, events2) {
		t.Errorf("seed 42 did not replay: manager event traces diverge (%d vs %d events)",
			len(events1), len(events2))
	}

	trace3, _ := perturbedRun(t, 1337)
	if reflect.DeepEqual(trace1, trace3) {
		// Not impossible, merely absurdly unlikely; flag it without
		// failing so a cosmic coincidence cannot break CI.
		t.Logf("seeds 42 and 1337 produced identical traces (%d steps)", len(trace1))
	}
}

// TestKernelEnvSweep runs a small seed sweep; each seed must replay its own
// trace. This is the loop a debugging session runs to hunt an interleaving
// bug, kept in-tree so the machinery cannot rot.
func TestKernelEnvSweep(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		a, _ := perturbedRun(t, seed)
		b, _ := perturbedRun(t, seed)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d did not replay", seed)
		}
	}
}

// TestKernelEnvRejectsPush: the push hub hands batches over channels that
// only goroutines can block on, so NewRunner refuses the combination instead
// of letting a replay deadlock.
func TestKernelEnvRejectsPush(t *testing.T) {
	_, err := NewRunner(Config{
		Pool:         buffer.MustNewPool(8),
		Manager:      core.MustNewManager(testManagerConfig(8)),
		Store:        testStore{pageBytes: 16},
		Env:          NewKernelEnv(1, 0),
		PushDelivery: true,
	})
	if err == nil || !strings.Contains(err.Error(), "push delivery") {
		t.Errorf("NewRunner with a KernelEnv and push delivery: err %v, want a push-delivery error", err)
	}
}

// TestWaitsDoNotAllocate pins the production environment's waits at zero
// allocations once warm: a busy backoff sleeps on a reused timer, a
// throttle park waits on the manager's wake-up and a reused timer, and a
// coalesced wait parks the worker's own waiter on a flight that is then
// recycled like one nobody joined.
func TestWaitsDoNotAllocate(t *testing.T) {
	if heaptest.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	mgr := core.MustNewManager(testManagerConfig(16))
	r, err := NewRunner(Config{
		Pool:    buffer.MustNewPool(16),
		Manager: mgr,
		Store:   testStore{pageBytes: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := mgr.StartScan(core.ScanOpts{Table: 1, TablePages: 64}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var sc trace.SpanContext
	var res ScanResult
	pin := func(t *testing.T, what string, f func()) {
		t.Helper()
		f() // warm: the first wait makes the timer, the wake-up, the waiter
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v objects, want 0", what, n)
		}
	}

	pin(t, "a busy backoff", func() { r.poolSleep(ctx, id, sc, time.Microsecond, &res) })
	// The scan leads no group, so the manager wakes it at once: this is
	// the park that ends on the wake-up, the one below ends at its deadline.
	pin(t, "a throttle park", func() { r.throttleWait(ctx, id, sc, 1, time.Millisecond, &res) })
	never := make(chan struct{})
	pin(t, "a park to its deadline", func() { r.cfg.Env.Park(ctx, never, time.Microsecond) })

	// The waiter is a worker of its own: it joins the flight the test
	// leads, parks, and is woken by finish.
	start, joined, woken := make(chan struct{}), make(chan struct{}), make(chan bool)
	go func() {
		var st fetchState
		var wres ScanResult
		for range start {
			ok := r.flights.join(7, &st.waiter)
			joined <- struct{}{}
			out, retry := r.waitFlight(ctx, id, sc, 7, st.waiter, &wres)
			woken <- ok && retry && out == 0
		}
	}()
	defer close(start)
	pin(t, "a coalesced flight wait", func() {
		fl := r.flights.begin(7, false)
		start <- struct{}{}
		<-joined
		r.flights.finish(7, fl, nil)
		if !<-woken {
			t.Fatal("the waiter did not join, or did not retry after a good read")
		}
	})
}
