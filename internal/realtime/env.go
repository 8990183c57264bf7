package realtime

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"scanshare/internal/sim"
	"scanshare/internal/vclock"
)

// Env is where a Runner's workers run and every one of their waits happens:
// start and page delays, busy and retry backoff, throttle parks, coalesced
// reads, idle prefetch workers, read timeouts and injected read latency.
// Production runs use goroutines, the wall clock and pooled timers
// (Config.Env left nil); replay tests use a KernelEnv. Push delivery's
// channel hand-offs run only in the goroutine environment.
type Env interface {
	// Now reads the environment's clock.
	Now() time.Duration
	// Run calls fn(0) … fn(n-1), each in a worker of its own, and returns
	// once all of them have returned.
	Run(n int, fn func(i int))
	// Go starts fn in a worker of its own that nobody joins.
	Go(fn func())
	// Sleep waits d, or less if ctx ends first.
	Sleep(ctx context.Context, d time.Duration)
	// Park waits until a token arrives on wake, d has passed (d <= 0: no
	// deadline) or ctx ends, and reports whether the token arrived. Wakers
	// send without blocking on a channel with room for one token, so a
	// wake-up that comes before the park is not lost.
	Park(ctx context.Context, wake <-chan struct{}, d time.Duration) bool
}

// signal leaves a token on wake without blocking: one already there says
// the same thing.
func signal(wake chan struct{}) {
	select {
	case wake <- struct{}{}:
	default:
	}
}

// goEnv is the production environment: a goroutine per worker, the wall
// clock from the first Now, and reused timers, so that a wait allocates
// nothing once there are as many timers as concurrent waiters.
type goEnv struct {
	wall vclock.Wall

	mu     sync.Mutex
	timers []*time.Timer // stopped, ready for Reset
}

func (e *goEnv) Now() time.Duration { return e.wall.Now() }

func (e *goEnv) Run(n int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

func (e *goEnv) Go(fn func()) { go fn() }

func (e *goEnv) Sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := e.timer(d)
	select {
	case <-t.C:
	case <-ctx.Done():
	}
	e.release(t)
}

func (e *goEnv) Park(ctx context.Context, wake <-chan struct{}, d time.Duration) bool {
	if d <= 0 {
		select {
		case <-wake:
			return true
		case <-ctx.Done():
			return false
		}
	}
	t := e.timer(d)
	woken := false
	select {
	case <-wake:
		woken = true
	case <-t.C:
	case <-ctx.Done():
	}
	e.release(t)
	return woken
}

// timer returns a timer that fires after d, reusing a released one: since
// Go 1.23 a stopped timer never delivers a stale tick.
func (e *goEnv) timer(d time.Duration) *time.Timer {
	e.mu.Lock()
	if n := len(e.timers) - 1; n >= 0 {
		t := e.timers[n]
		e.timers[n] = nil
		e.timers = e.timers[:n]
		e.mu.Unlock()
		t.Reset(d)
		return t
	}
	e.mu.Unlock()
	return time.NewTimer(d)
}

func (e *goEnv) release(t *time.Timer) {
	t.Stop()
	e.mu.Lock()
	e.timers = append(e.timers, t)
	e.mu.Unlock()
}

// parkPoll is how often a KernelEnv process parked on a channel looks for
// its token, in virtual time.
const parkPoll = 10 * time.Microsecond

// KernelEnv runs a Runner's scan and prefetch workers as sim.Kernel
// processes in virtual time. One worker runs at a time, until it waits, and
// every wake-up is delayed by a seeded jitter in [0, maxJitter): which
// worker reaches the manager and the pool first is a pure function of the
// seed, and a run replays bit for bit, timestamps included, on any machine
// and under -race. A parked worker looks for its token every parkPoll,
// since its wakers send on channels the kernel cannot see; a cancelled
// context is noticed at the next wake-up. NewRunner rejects a KernelEnv
// together with PushDelivery.
type KernelEnv struct {
	k         *sim.Kernel
	rng       *rand.Rand
	maxJitter time.Duration
}

// NewKernelEnv returns an environment on a fresh kernel whose wake-ups are
// jittered by a generator seeded with seed. maxJitter 0 delays nothing.
func NewKernelEnv(seed int64, maxJitter time.Duration) *KernelEnv {
	if maxJitter < 0 {
		panic("realtime: KernelEnv with negative jitter")
	}
	return &KernelEnv{k: sim.New(), rng: rand.New(rand.NewSource(seed)), maxJitter: maxJitter}
}

func (e *KernelEnv) Now() time.Duration { return e.k.Now() }

// Run spawns the workers in index order and runs the kernel until they
// and their helpers have finished. Call it from outside the kernel.
func (e *KernelEnv) Run(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		e.k.Spawn(fmt.Sprintf("worker%d", i), 0, func(*sim.Proc) { fn(i) })
	}
	e.k.Run()
}

// Go spawns a helper that runs at the current instant, once the calling
// worker waits.
func (e *KernelEnv) Go(fn func()) {
	e.k.Spawn("helper", 0, func(*sim.Proc) { fn() })
}

func (e *KernelEnv) Sleep(ctx context.Context, d time.Duration) {
	if d <= 0 || ctx.Err() != nil {
		return
	}
	if d > 1<<62 {
		panic("realtime: KernelEnv cannot wait forever; give the run a ReadTimeout")
	}
	e.proc().Sleep(d + e.jitter())
}

func (e *KernelEnv) Park(ctx context.Context, wake <-chan struct{}, d time.Duration) bool {
	woken := false
	deadline := e.k.Now() + d
	ready := func() bool {
		select {
		case <-wake:
			woken = true
			return true
		default:
		}
		return ctx.Err() != nil || (d > 0 && e.k.Now() >= deadline)
	}
	if ready() {
		return woken
	}
	p := e.proc()
	p.Poll(parkPoll, ready)
	if j := e.jitter(); j > 0 {
		p.Sleep(j)
	}
	return woken
}

// proc returns the calling worker's process.
func (e *KernelEnv) proc() *sim.Proc {
	p := e.k.Current()
	if p == nil {
		panic("realtime: KernelEnv wait outside a worker")
	}
	return p
}

func (e *KernelEnv) jitter() time.Duration {
	if e.maxJitter <= 0 {
		return 0
	}
	return time.Duration(e.rng.Int63n(int64(e.maxJitter)))
}
