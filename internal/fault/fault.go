// Package fault injects deterministic read failures underneath the realtime
// execution mode's page store.
//
// The paper's mechanism is evaluated on a healthy disk; a production engine
// must keep scan groups coherent when reads fail, stall, or spike in latency.
// This package makes failure a first-class, replayable input: a declarative
// Plan describes which reads misbehave, and a Store wraps any page store and
// applies the plan.
//
// Determinism is the design center. Whether a given read misbehaves is a pure
// function of (plan seed, rule index, page ID, attempt number) — a hash, not
// a shared RNG stream — so the decision for "attempt 2 on page 117" is the
// same no matter which goroutine issues it, in which order, on which machine.
// Injected latency and stalls take their time on the caller's Env, so a chaos
// run replays bit-for-bit in the realtime runner's virtual-time environment,
// and even free-running -race runs see the same per-page failure schedule.
// Plans deliberately have no global mutable trigger state (no "fail the next
// N reads" counters), because any such state would make the schedule depend
// on goroutine interleaving.
package fault

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"scanshare/internal/disk"
)

// Kind classifies an injected fault.
type Kind int

const (
	// KindError fails the read with ErrInjected.
	KindError Kind = iota
	// KindLatency delays the read by Rule.Latency before serving it.
	KindLatency
	// KindStall blocks the read until the caller's context is done, then
	// returns the context error. It models a read that never completes;
	// callers need a per-read timeout (or cancellation) to get unstuck.
	KindStall
	// KindTorn serves a truncated copy of the page together with ErrTorn,
	// modelling a short read that delivered only part of the page.
	KindTorn

	numKinds
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindLatency:
		return "latency"
	case KindStall:
		return "stall"
	case KindTorn:
		return "torn"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Valid reports whether k is a defined kind.
func (k Kind) Valid() bool { return k >= KindError && k < numKinds }

// ErrInjected is the error returned for KindError faults.
var ErrInjected = errors.New("fault: injected read error")

// ErrTorn is the error returned for KindTorn faults (alongside the partial
// page data).
var ErrTorn = errors.New("fault: torn read")

// Rule describes one class of injected fault. A read matches a rule when its
// page lies in the rule's range, its attempt number is within the rule's
// attempt window, and the per-(rule, page, attempt) hash clears Prob.
type Rule struct {
	// Kind selects the failure mode.
	Kind Kind
	// FirstPage and LastPage bound the rule to a device page range,
	// inclusive. LastPage == 0 means "no upper bound", so the zero value
	// covers every page.
	FirstPage, LastPage disk.PageID
	// Prob is the per-(page, attempt) probability in (0, 1] that the rule
	// fires.
	Prob float64
	// UntilAttempt, when positive, restricts the rule to attempts
	// < UntilAttempt: the first UntilAttempt tries misbehave and later
	// retries succeed ("fail then recover"). Zero applies to all attempts.
	UntilAttempt int
	// Latency is the injected delay for KindLatency rules.
	Latency time.Duration
}

// matches reports whether the rule covers (pid, attempt) before the
// probability roll.
func (r Rule) matches(pid disk.PageID, attempt int) bool {
	if pid < r.FirstPage {
		return false
	}
	if r.LastPage != 0 && pid > r.LastPage {
		return false
	}
	if r.UntilAttempt > 0 && attempt >= r.UntilAttempt {
		return false
	}
	return true
}

// Plan is a declarative fault schedule: a seed plus an ordered rule list.
// For each read the first matching rule that clears its probability roll
// fires; rules are therefore checked in declaration order.
type Plan struct {
	Seed  int64
	Rules []Rule
}

// Validate reports whether the plan is usable.
func (p Plan) Validate() error {
	for i, r := range p.Rules {
		if !r.Kind.Valid() {
			return fmt.Errorf("fault: rule %d has invalid kind %d", i, int(r.Kind))
		}
		if r.Prob <= 0 || r.Prob > 1 {
			return fmt.Errorf("fault: rule %d probability %g outside (0,1]", i, r.Prob)
		}
		if r.FirstPage < 0 || r.LastPage < 0 {
			return fmt.Errorf("fault: rule %d has a negative page bound", i)
		}
		if r.LastPage != 0 && r.LastPage < r.FirstPage {
			return fmt.Errorf("fault: rule %d range [%d,%d] is inverted", i, r.FirstPage, r.LastPage)
		}
		if r.UntilAttempt < 0 {
			return fmt.Errorf("fault: rule %d has negative UntilAttempt", i)
		}
		if r.Kind == KindLatency && r.Latency <= 0 {
			return fmt.Errorf("fault: latency rule %d without a positive Latency", i)
		}
	}
	return nil
}

// decide returns the index of the rule that fires for (pid, attempt), or -1.
func (p Plan) decide(pid disk.PageID, attempt int) int {
	for i, r := range p.Rules {
		if r.matches(pid, attempt) && hash01(p.Seed, i, pid, attempt) < r.Prob {
			return i
		}
	}
	return -1
}

// hash01 maps (seed, rule, page, attempt) to a uniform float in [0, 1) with
// a splitmix64-style finalizer. This is the determinism keystone: no state,
// no stream, just a pure function of the read's identity.
func hash01(seed int64, rule int, pid disk.PageID, attempt int) float64 {
	x := uint64(seed)
	for _, v := range [3]uint64{uint64(rule) + 1, uint64(pid) + 1, uint64(attempt) + 1} {
		x += v * 0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return float64(x>>11) / float64(1<<53)
}

// Reader is the underlying page source a Store wraps. It is structurally
// identical to realtime.PageStore, without importing it.
type Reader interface {
	ReadPage(pid disk.PageID) ([]byte, error)
}

// AttemptReader is a Reader whose reads wait themselves (a modelled
// transfer time, say). A Store that wraps one hands it the attempt's
// context, Env and what is left of the timeout, so its wait runs on the
// caller's clock and ends with the attempt.
type AttemptReader interface {
	Reader
	ReadPageAt(ctx context.Context, env Env, timeout time.Duration, pid disk.PageID, attempt int) ([]byte, error)
}

// Counters is a snapshot of a Store's injection counters.
type Counters struct {
	Reads           int64 // read attempts that reached the store
	InjectedErrors  int64 // KindError faults served
	LatencyEvents   int64 // KindLatency faults served
	InjectedLatency time.Duration
	Stalls          int64 // KindStall faults served
	TornReads       int64 // KindTorn faults served
}

// String renders the snapshot as one compact log line.
func (c Counters) String() string {
	return fmt.Sprintf("faults: %d reads, %d errors, %d latency spikes (%v), %d stalls, %d torn",
		c.Reads, c.InjectedErrors, c.LatencyEvents, c.InjectedLatency, c.Stalls, c.TornReads)
}

// Env is the clock a read's injected latency and stalls are waited out on:
// the realtime runner passes its environment, so a fault costs wall time in
// production and virtual time in a replay.
type Env interface {
	// Sleep waits d, or less if ctx ends first.
	Sleep(ctx context.Context, d time.Duration)
}

// WallEnv waits on the wall clock, for plain ReadPage entry points that
// have no caller's Env.
type WallEnv struct{}

// Sleep waits d on the wall clock; ctx is not consulted.
func (WallEnv) Sleep(_ context.Context, d time.Duration) { time.Sleep(d) }

// forever is how long a stall waits when nothing bounds it.
const forever = time.Duration(1<<63 - 1)

// Store wraps a Reader and applies a Plan to every read. It is safe for
// concurrent use. It implements both the plain ReadPage interface (attempt 0,
// wall clock, no bound) and the attempt-aware extension the realtime runner
// probes for, so retries see fresh fault decisions and injected waits run on
// the runner's clock.
type Store struct {
	inner   Reader
	attempt AttemptReader // inner's AttemptReader extension, or nil
	plan    Plan

	reads          atomic.Int64
	injectedErrors atomic.Int64
	latencyEvents  atomic.Int64
	latencyNanos   atomic.Int64
	stalls         atomic.Int64
	tornReads      atomic.Int64
}

// NewStore wraps inner with the given plan.
func NewStore(inner Reader, plan Plan) (*Store, error) {
	if inner == nil {
		return nil, errors.New("fault: NewStore with nil inner reader")
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	s := &Store{inner: inner, plan: plan}
	s.attempt, _ = inner.(AttemptReader)
	return s, nil
}

// MustNewStore is NewStore for known-good plans; it panics on error.
func MustNewStore(inner Reader, plan Plan) *Store {
	s, err := NewStore(inner, plan)
	if err != nil {
		panic(err)
	}
	return s
}

// ReadPage serves attempt 0 on the wall clock with no timeout. Stall faults
// block until the process exits under this entry point — callers that can
// see stalls should use ReadPageAt with a timeout or a cancellable context.
func (s *Store) ReadPage(pid disk.PageID) ([]byte, error) {
	return s.ReadPageAt(context.Background(), WallEnv{}, 0, pid, 0)
}

// ReadPageAt serves one read attempt, applying the plan's decision for
// (pid, attempt) before delegating to the wrapped reader. Injected latency
// and stalls wait on env for at most timeout (0: no bound) and until ctx
// ends; a wait the timeout cuts short fails the read with
// context.DeadlineExceeded, one ctx ends with ctx's error. An
// AttemptReader underneath gets the same ctx and env and the rest of the
// timeout.
func (s *Store) ReadPageAt(ctx context.Context, env Env, timeout time.Duration, pid disk.PageID, attempt int) ([]byte, error) {
	s.reads.Add(1)
	switch i := s.plan.decide(pid, attempt); {
	case i < 0:
		// Healthy read.
	case s.plan.Rules[i].Kind == KindError:
		s.injectedErrors.Add(1)
		return nil, fmt.Errorf("page %d attempt %d: %w", pid, attempt, ErrInjected)
	case s.plan.Rules[i].Kind == KindLatency:
		s.latencyEvents.Add(1)
		s.latencyNanos.Add(int64(s.plan.Rules[i].Latency))
		lat := s.plan.Rules[i].Latency
		if err := Wait(ctx, env, lat, timeout); err != nil {
			return nil, fmt.Errorf("page %d attempt %d: %w", pid, attempt, err)
		}
		if timeout > 0 {
			timeout -= lat // still positive: Wait fails a latency >= timeout
		}
	case s.plan.Rules[i].Kind == KindStall:
		s.stalls.Add(1)
		return nil, fmt.Errorf("page %d attempt %d stalled: %w", pid, attempt, Wait(ctx, env, forever, timeout))
	case s.plan.Rules[i].Kind == KindTorn:
		s.tornReads.Add(1)
		data, err := s.readInner(ctx, env, timeout, pid, attempt)
		if err != nil {
			return nil, err
		}
		return data[:len(data)/2], fmt.Errorf("page %d attempt %d short read (%d of %d bytes): %w",
			pid, attempt, len(data)/2, len(data), ErrTorn)
	}
	return s.readInner(ctx, env, timeout, pid, attempt)
}

// readInner reads pid from the wrapped reader, through its AttemptReader
// extension when it has one.
func (s *Store) readInner(ctx context.Context, env Env, timeout time.Duration, pid disk.PageID, attempt int) ([]byte, error) {
	if s.attempt != nil {
		return s.attempt.ReadPageAt(ctx, env, timeout, pid, attempt)
	}
	return s.inner.ReadPage(pid)
}

// Counters returns a snapshot of the injection counters.
func (s *Store) Counters() Counters {
	return Counters{
		Reads:           s.reads.Load(),
		InjectedErrors:  s.injectedErrors.Load(),
		LatencyEvents:   s.latencyEvents.Load(),
		InjectedLatency: time.Duration(s.latencyNanos.Load()),
		Stalls:          s.stalls.Load(),
		TornReads:       s.tornReads.Load(),
	}
}

// Wait spends d on env, cut short by timeout (if positive) or by ctx. It
// returns nil when the whole of d passed, context.DeadlineExceeded when the
// timeout ended it, and ctx's error when ctx did.
func Wait(ctx context.Context, env Env, d, timeout time.Duration) error {
	cut := timeout > 0 && d >= timeout
	if cut {
		d = timeout
	}
	env.Sleep(ctx, d)
	if err := ctx.Err(); err != nil {
		return err
	}
	if cut {
		return context.DeadlineExceeded
	}
	return nil
}
