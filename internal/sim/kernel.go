// Package sim implements a small deterministic discrete-event simulation
// kernel. It exists because the paper's evaluation metrics — end-to-end
// query times, disk reads, disk seeks, and the split of query time into CPU
// work and I/O wait — depend on the *relative timing* of concurrently running
// scans, and relative timing on a shared CI machine is noise. Running the
// workload in virtual time makes every experiment reproducible bit-for-bit.
//
// The model is cooperative coroutines over a single virtual timeline:
//
//   - A Kernel owns virtual "now" and a min-heap of pending events, ordered
//     by (time, schedule order).
//   - A Proc is an iter.Pull coroutine: Run resumes it with next(), it
//     suspends with yield() inside Sleep. iter.Pull runs exactly one side of
//     a switch at any instant and orders what one side wrote before what the
//     other does next, so simulated state needs no locking, and a switch is
//     a direct goroutine hand-off: no channel, no scheduler pass.
//   - A Proc advances the timeline by calling Sleep. Work is modelled as
//     "do the state change instantaneously, then Sleep for its cost". When
//     the sleeper's own wake-up is the next event anyway, Sleep moves the
//     clock and returns without switching: dispatch order is the sorted
//     order of (time, schedule order) either way.
//   - A Proc that waits for a condition it can only check, such as a page
//     another scan is still reading, calls Poll: a Sleep-and-check loop in
//     which Run itself checks the condition at each wake-up and resumes the
//     process only once it holds. The dispatch order is the loop's.
//
// This is the classic process-interaction style of discrete-event simulation,
// restricted to the two primitives (Sleep and Poll) that the scan workload
// needs.
package sim

import (
	"fmt"
	"iter"
	"time"
)

// Kernel is a deterministic discrete-event scheduler. Create one with New,
// add processes with Spawn (before or during Run), and call Run to execute
// the simulation to completion.
//
// A Kernel is not safe for concurrent use from outside its own processes:
// Spawn and Run must be called either from the goroutine that owns the kernel
// (before Run / between Runs) or from within a running Proc.
type Kernel struct {
	now     time.Duration
	events  []event // binary min-heap, see event.before
	seq     uint64
	running bool
	live    int     // processes spawned and not yet finished
	procs   []*Proc // every process spawned since Run last returned
	current *Proc   // the process Run is resuming; names a panic
}

// New returns an empty kernel at virtual time zero.
func New() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Live returns the number of spawned processes that have not finished yet.
func (k *Kernel) Live() int { return k.live }

// Current returns the process Run is resuming, or nil outside a process. Code
// that waits on a process's behalf without being handed its Proc finds the
// caller here.
func (k *Kernel) Current() *Proc { return k.current }

// Proc is a simulated process. Its methods must only be called from the
// process body's own goroutine: Sleep and Poll suspend the coroutine they are
// called on.
type Proc struct {
	k        *Kernel
	name     string
	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	finished bool
	slept    time.Duration
	// ready and period are the condition and period of the Poll the
	// process is suspended in; ready is nil outside Poll.
	ready  func() bool
	period time.Duration
}

// stopped unwinds the body of a process whose kernel gave up on the run.
type stopped struct{}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// Slept returns the total virtual time this process has spent in Sleep.
func (p *Proc) Slept() time.Duration { return p.slept }

// Spawn registers a new process whose body is fn. The process becomes
// runnable at virtual time now+delay. fn runs on its own goroutine but under
// the kernel's cooperative scheduling: it executes only between its calls to
// Sleep.
func (k *Kernel) Spawn(name string, delay time.Duration, fn func(p *Proc)) *Proc {
	if delay < 0 {
		panic("sim: Spawn with negative delay")
	}
	p := &Proc{k: k, name: name}
	k.live++
	k.procs = append(k.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.finished = true
			k.live--
			// A body's own panic goes on to the caller of next(): Run.
			if r := recover(); r != nil && r != (stopped{}) {
				panic(r)
			}
		}()
		fn(p)
	})
	k.schedule(p, k.now+delay)
	return p
}

// Sleep advances the process's local view of time by d: the process is
// suspended and resumes once virtual time reaches now+d. Sleeping for zero is
// allowed and simply re-queues the process behind other events scheduled for
// the same instant, which is how a process politely yields.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic("sim: Sleep with negative duration")
	}
	if p.finished {
		panic("sim: Sleep on finished process")
	}
	k := p.k
	p.slept += d
	at := k.now + d
	// Nothing would be dispatched before this wake-up, so the round trip
	// through Run is skipped. An event at the same instant was scheduled
	// first and must run first, hence strictly earlier.
	if len(k.events) == 0 || at < k.events[0].at {
		k.now = at
		return
	}
	k.schedule(p, at)
	p.suspend()
}

// Poll sleeps d and then asks ready, again and again, until ready returns
// true. It dispatches exactly like the loop
//
//	for { p.Sleep(d); if ready() { break } }
//
// — the same instants, the same schedule order, the same calls of ready —
// but while ready says no, Run asks it without resuming the process: a
// process waiting for a condition costs no switch to it per period. ready
// runs at the instant of each wake-up, either on the process's goroutine or
// on Run's, and must only touch state the processes share under the
// kernel's one-at-a-time rule. A panic in ready is the process's panic.
func (p *Proc) Poll(d time.Duration, ready func() bool) {
	if d <= 0 {
		panic("sim: Poll with non-positive period")
	}
	if p.finished {
		panic("sim: Poll on finished process")
	}
	if p.k.poll(p, d, ready) {
		return
	}
	p.ready, p.period = ready, d
	p.suspend()
}

// poll runs the periods of p's Poll for as long as each wake-up would be
// dispatched next anyway, advancing the clock in place, exactly as Sleep
// does. It returns true once ready does, and false after queueing a wake-up
// that has to wait its turn.
func (k *Kernel) poll(p *Proc, d time.Duration, ready func() bool) bool {
	for {
		p.slept += d
		at := k.now + d
		if len(k.events) > 0 && at >= k.events[0].at {
			k.schedule(p, at)
			return false
		}
		k.now = at
		if ready() {
			return true
		}
	}
}

// suspend hands control back to Run until the process's next event.
func (p *Proc) suspend() {
	if !p.yield(struct{}{}) {
		panic(stopped{})
	}
}

// Run executes events until no process remains runnable. It returns the
// virtual time at which the simulation quiesced. If a process panics, Run
// stops every other process, empties the kernel so that it can be used again,
// and re-raises the panic under the process's name. A process that blocks on
// anything other than Sleep or Poll blocks Run with it.
func (k *Kernel) Run() time.Duration {
	if k.running {
		panic("sim: Run called reentrantly")
	}
	k.running = true
	defer func() {
		r := recover()
		if r != nil {
			if k.current != nil {
				r = fmt.Sprintf("sim: process %q panicked: %v", k.current.name, r)
			}
			clear(k.events)
			k.events = k.events[:0]
			// A suspended process unwinds through its deferred calls,
			// one that never started just ends, a finished one ignores it.
			for _, p := range k.procs {
				p.stop()
			}
		}
		clear(k.procs)
		k.procs, k.live, k.current, k.running = k.procs[:0], 0, nil, false
		if r != nil {
			panic(r)
		}
	}()
	for len(k.events) > 0 {
		ev := k.pop()
		if ev.at < k.now {
			panic(fmt.Sprintf("sim: event at %v is before now %v", ev.at, k.now))
		}
		k.now = ev.at
		p := ev.p
		k.current = p
		// A process in Poll is resumed only once its condition holds.
		if p.ready == nil || p.ready() || k.poll(p, p.period, p.ready) {
			p.ready = nil
			p.next()
		}
		k.current = nil
	}
	if k.live > 0 {
		panic(fmt.Sprintf("sim: %d process(es) still live but no events pending", k.live))
	}
	return k.now
}

// event is a pending resumption of a process at a point in virtual time.
// seq breaks ties so that simultaneous events run in schedule order.
type event struct {
	at  time.Duration
	seq uint64
	p   *Proc
}

func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func (k *Kernel) schedule(p *Proc, at time.Duration) {
	k.seq++
	q := append(k.events, event{at: at, seq: k.seq, p: p})
	for i := len(q) - 1; i > 0 && q[i].before(q[(i-1)/2]); i = (i - 1) / 2 {
		q[i], q[(i-1)/2] = q[(i-1)/2], q[i]
	}
	k.events = q
}

// pop removes and returns the earliest event.
func (k *Kernel) pop() event {
	q := k.events
	top, n := q[0], len(q)-1
	q[0], q[n] = q[n], event{}
	for i, c := 0, 1; c < n; i, c = c, 2*c+1 {
		if c+1 < n && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
	}
	k.events = q[:n]
	return top
}
