package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestSingleProcessAdvancesTime(t *testing.T) {
	k := New()
	var at []time.Duration
	k.Spawn("p", 0, func(p *Proc) {
		for i := 0; i < 3; i++ {
			at = append(at, p.Now())
			p.Sleep(10 * time.Millisecond)
		}
		at = append(at, p.Now())
	})
	end := k.Run()
	want := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(at) != len(want) {
		t.Fatalf("got %d observations, want %d", len(at), len(want))
	}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("observation %d: got %v, want %v", i, at[i], want[i])
		}
	}
	if end != 30*time.Millisecond {
		t.Errorf("Run returned %v, want 30ms", end)
	}
}

func TestSpawnDelayDefersStart(t *testing.T) {
	k := New()
	var started time.Duration
	k.Spawn("late", 42*time.Millisecond, func(p *Proc) { started = p.Now() })
	k.Run()
	if started != 42*time.Millisecond {
		t.Errorf("process started at %v, want 42ms", started)
	}
}

func TestInterleavingIsDeterministic(t *testing.T) {
	run := func() []string {
		k := New()
		var trace []string
		step := func(name string, d time.Duration, n int) func(*Proc) {
			return func(p *Proc) {
				for i := 0; i < n; i++ {
					trace = append(trace, name)
					p.Sleep(d)
				}
			}
		}
		k.Spawn("a", 0, step("a", 3*time.Millisecond, 4))
		k.Spawn("b", 0, step("b", 2*time.Millisecond, 6))
		k.Run()
		return trace
	}
	first := run()
	for i := 0; i < 10; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("run %d: trace length %d != %d", i, len(again), len(first))
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("run %d: trace diverges at %d: %q != %q", i, j, again[j], first[j])
			}
		}
	}
}

func TestTiesRunInScheduleOrder(t *testing.T) {
	k := New()
	var order []string
	for _, name := range []string{"x", "y", "z"} {
		name := name
		k.Spawn(name, 5*time.Millisecond, func(p *Proc) { order = append(order, name) })
	}
	k.Run()
	if got := order[0] + order[1] + order[2]; got != "xyz" {
		t.Errorf("simultaneous events ran in order %q, want xyz", got)
	}
}

func TestSleepZeroYields(t *testing.T) {
	k := New()
	var order []string
	k.Spawn("a", 0, func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	k.Spawn("b", 0, func(p *Proc) {
		order = append(order, "b1")
	})
	k.Run()
	// a yields at time 0; b (scheduled at time 0) must run before a resumes.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got order %v, want %v", order, want)
		}
	}
}

func TestSpawnFromWithinProcess(t *testing.T) {
	k := New()
	var childStart time.Duration
	k.Spawn("parent", 0, func(p *Proc) {
		p.Sleep(7 * time.Millisecond)
		k.Spawn("child", 3*time.Millisecond, func(c *Proc) { childStart = c.Now() })
		p.Sleep(20 * time.Millisecond)
	})
	k.Run()
	if childStart != 10*time.Millisecond {
		t.Errorf("child started at %v, want 10ms", childStart)
	}
}

func TestSleptAccounting(t *testing.T) {
	k := New()
	var proc *Proc
	proc = k.Spawn("p", 0, func(p *Proc) {
		p.Sleep(4 * time.Millisecond)
		p.Sleep(6 * time.Millisecond)
	})
	k.Run()
	if proc.Slept() != 10*time.Millisecond {
		t.Errorf("Slept = %v, want 10ms", proc.Slept())
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	k := New()
	panicked := make(chan bool, 1)
	k.Spawn("p", 0, func(p *Proc) {
		defer func() {
			panicked <- recover() != nil
			// Re-panic would tear down the kernel; instead finish cleanly.
		}()
		p.Sleep(-time.Millisecond)
	})
	k.Run()
	if !<-panicked {
		t.Error("negative Sleep did not panic")
	}
}

// runPanics runs k and returns what Run panicked with, as text.
func runPanics(t *testing.T, k *Kernel) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not panic")
		}
		msg = fmt.Sprint(r)
	}()
	k.Run()
	return ""
}

func TestProcessPanicPropagatesToRun(t *testing.T) {
	k := New()
	k.Spawn("ok", 0, func(p *Proc) { p.Sleep(time.Millisecond) })
	k.Spawn("boom", 0, func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("kaboom")
	})
	if msg := runPanics(t, k); !strings.Contains(msg, "kaboom") || !strings.Contains(msg, `"boom"`) {
		t.Errorf("panic value = %q, want process name and message", msg)
	}
}

// goroutinesReturnTo waits for the goroutine count to fall back to want: a
// stopped coroutine's goroutine is gone by the time stop returns, but other
// tests' finished goroutines may still be on their way out.
func goroutinesReturnTo(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Errorf("%d goroutines, want %d: a process outlived its Run", got, want)
	}
}

// checkFreshRun runs a new pair of processes on a kernel that has just given
// up on a run, and checks they see a clean timeline.
func checkFreshRun(t *testing.T, k *Kernel) {
	t.Helper()
	start := k.Now()
	var trace []string
	for _, name := range []string{"a", "b"} {
		k.Spawn(name, 0, func(p *Proc) {
			for i := 0; i < 2; i++ {
				trace = append(trace, fmt.Sprint(name, p.Now()-start))
				p.Sleep(time.Millisecond)
			}
		})
	}
	if end := k.Run(); end != start+2*time.Millisecond {
		t.Errorf("fresh run ended at %v, want %v", end, start+2*time.Millisecond)
	}
	if got, want := strings.Join(trace, " "), "a0s b0s a1ms b1ms"; got != want {
		t.Errorf("fresh run dispatched %q, want %q: stale events survived", got, want)
	}
	if k.Live() != 0 {
		t.Errorf("Live = %d after the fresh run", k.Live())
	}
}

func TestProcessPanicStopsTheRest(t *testing.T) {
	before := runtime.NumGoroutine()
	k := New()
	unwound := 0
	for i := 0; i < 3; i++ {
		k.Spawn("sleeper", 0, func(p *Proc) {
			defer func() { unwound++ }()
			for {
				p.Sleep(time.Millisecond)
			}
		})
	}
	k.Spawn("done-early", 0, func(p *Proc) {})
	k.Spawn("never-started", time.Hour, func(p *Proc) { t.Error("a process started after the panic") })
	k.Spawn("boom", 0, func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		panic("kaboom")
	})
	runPanics(t, k)
	if unwound != 3 {
		t.Errorf("%d of 3 suspended processes ran their deferred calls", unwound)
	}
	if k.Live() != 0 {
		t.Errorf("Live = %d after the panic", k.Live())
	}
	goroutinesReturnTo(t, before)
	checkFreshRun(t, k)
}

func TestLiveWithoutEventsStopsTheRest(t *testing.T) {
	before := runtime.NumGoroutine()
	k := New()
	k.Spawn("lost", 0, func(p *Proc) { t.Error("a process without an event ran") })
	k.events = k.events[:0] // cannot happen through the API
	if msg := runPanics(t, k); !strings.Contains(msg, "still live") {
		t.Errorf("panic value %q", msg)
	}
	if k.Live() != 0 {
		t.Errorf("Live = %d after the panic", k.Live())
	}
	goroutinesReturnTo(t, before)
	checkFreshRun(t, k)
}

func TestSleepDoesNotAllocate(t *testing.T) {
	for _, peers := range []int{0, 1} {
		k := New()
		done, peerWakeups := false, 0
		for i := 0; i < peers; i++ {
			k.Spawn("peer", 0, func(p *Proc) {
				for !done {
					p.Sleep(time.Microsecond)
					peerWakeups++
				}
			})
		}
		k.Spawn("measured", 0, func(p *Proc) {
			const runs = 1000
			allocs := testing.AllocsPerRun(runs, func() { p.Sleep(time.Microsecond) })
			done = true
			if allocs != 0 {
				t.Errorf("%d peer(s): %v allocs per Sleep, want 0", peers, allocs)
			}
			// With a peer on the same step every wake-up ties with the
			// queue's head, so each Sleep must have handed over.
			if peerWakeups < peers*runs {
				t.Errorf("%d peer(s): %d hand-overs in %d sleeps", peers, peerWakeups, runs)
			}
		})
		k.Run()
	}
}

// TestPollDoesNotAllocate: a Poll whose condition Run checks on a wake-up
// that ties with a peer's allocates nothing either.
func TestPollDoesNotAllocate(t *testing.T) {
	k := New()
	done, checks := false, 0
	k.Spawn("peer", 0, func(p *Proc) {
		for !done {
			p.Sleep(time.Microsecond)
		}
	})
	k.Spawn("measured", 0, func(p *Proc) {
		// No on the first check, yes on the second: every Poll is one
		// check by Run without resuming the process, then one that does.
		ready := func() bool { checks++; return checks%2 == 0 }
		const runs = 1000
		allocs := testing.AllocsPerRun(runs, func() { p.Poll(time.Microsecond, ready) })
		done = true
		if allocs != 0 {
			t.Errorf("%v allocs per Poll, want 0", allocs)
		}
		if checks < 2*runs {
			t.Errorf("%d checks in %d polls", checks, runs)
		}
	})
	k.Run()
}

// TestPollPanicNamesTheProcess: a condition that panics while Run checks it
// is the polling process's panic, and the run is given up as for any other.
func TestPollPanicNamesTheProcess(t *testing.T) {
	before := runtime.NumGoroutine()
	k := New()
	unwound := false
	k.Spawn("peer", 0, func(p *Proc) {
		defer func() { unwound = true }()
		for {
			p.Sleep(time.Millisecond)
		}
	})
	k.Spawn("poller", 0, func(p *Proc) {
		p.Poll(time.Millisecond, func() bool { panic("bad condition") })
	})
	if msg := runPanics(t, k); !strings.Contains(msg, "bad condition") || !strings.Contains(msg, `"poller"`) {
		t.Errorf("panic value = %q, want process name and message", msg)
	}
	if !unwound {
		t.Error("the peer was not stopped")
	}
	goroutinesReturnTo(t, before)
	checkFreshRun(t, k)
}

// BenchmarkKernelSleep prices one Sleep. Alone, the sleeper is always next
// and the clock advances in place; with peers on the same step every wake-up
// ties with the queue's head and costs a switch to Run and one to the peer.
// poll prices one period of a Poll whose condition stays false, next to one
// peer on the same step: Run checks the condition without a switch to the
// poller, so a period costs the peer's hand-over and the check.
func BenchmarkKernelSleep(b *testing.B) {
	for _, bc := range []struct {
		name  string
		procs int
	}{{"alone", 1}, {"handoff2", 2}, {"handoff8", 8}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			k := New()
			left := b.N
			for i := 0; i < bc.procs; i++ {
				k.Spawn("sleeper", 0, func(p *Proc) {
					for ; left > 0; left-- {
						p.Sleep(time.Microsecond)
					}
				})
			}
			k.Run()
		})
	}
	b.Run("poll", func(b *testing.B) {
		b.ReportAllocs()
		k := New()
		left := b.N
		k.Spawn("peer", 0, func(p *Proc) {
			for left > 0 {
				p.Sleep(time.Microsecond)
			}
		})
		k.Spawn("poller", 0, func(p *Proc) {
			p.Poll(time.Microsecond, func() bool { left--; return left <= 0 })
		})
		k.Run()
	})
}

func TestClockTracksKernel(t *testing.T) {
	k := New()
	c := ClockOf(k)
	k.Spawn("p", 0, func(p *Proc) {
		if c.Now() != 0 {
			t.Errorf("clock at start: %v", c.Now())
		}
		p.Sleep(time.Second)
		if c.Now() != time.Second {
			t.Errorf("clock after sleep: %v", c.Now())
		}
	})
	k.Run()
}

func TestManyProcessesQuiesce(t *testing.T) {
	k := New()
	total := 0
	for i := 0; i < 100; i++ {
		i := i
		k.Spawn("p", time.Duration(i)*time.Microsecond, func(p *Proc) {
			for j := 0; j < 10; j++ {
				p.Sleep(time.Duration(1+i%7) * time.Microsecond)
			}
			total++
		})
	}
	k.Run()
	if total != 100 {
		t.Errorf("only %d processes finished", total)
	}
	if k.Live() != 0 {
		t.Errorf("Live = %d after Run", k.Live())
	}
}

func TestResourceSingleServerSerializes(t *testing.T) {
	r := MustNewResource(1)
	if lat := r.Reserve(0, 10*time.Millisecond); lat != 10*time.Millisecond {
		t.Errorf("first reservation latency %v", lat)
	}
	// Issued at t=5ms while busy until 10ms: waits 5ms then serves 10ms.
	if lat := r.Reserve(5*time.Millisecond, 10*time.Millisecond); lat != 15*time.Millisecond {
		t.Errorf("queued reservation latency %v, want 15ms", lat)
	}
	if q := r.QueuedTime(); q != 5*time.Millisecond {
		t.Errorf("QueuedTime = %v, want 5ms", q)
	}
}

func TestResourceParallelServers(t *testing.T) {
	r := MustNewResource(2)
	r.Reserve(0, 10*time.Millisecond)
	if lat := r.Reserve(0, 10*time.Millisecond); lat != 10*time.Millisecond {
		t.Errorf("second server not used: latency %v", lat)
	}
	// Third request queues behind the earlier of the two.
	if lat := r.Reserve(0, 4*time.Millisecond); lat != 14*time.Millisecond {
		t.Errorf("third reservation latency %v, want 14ms", lat)
	}
	if r.Servers() != 2 {
		t.Errorf("Servers = %d", r.Servers())
	}
}

func TestResourceZeroCostFree(t *testing.T) {
	r := MustNewResource(1)
	if lat := r.Reserve(0, 0); lat != 0 {
		t.Errorf("zero-cost reservation latency %v", lat)
	}
}

func TestResourceValidation(t *testing.T) {
	if _, err := NewResource(0); err == nil {
		t.Error("zero servers accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewResource(0) did not panic")
		}
	}()
	MustNewResource(-1)
}
