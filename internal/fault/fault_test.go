package fault

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"scanshare/internal/disk"
)

// memStore serves synthetic pages whose first byte encodes the page ID.
type memStore struct{ pageBytes int }

func (s memStore) ReadPage(pid disk.PageID) ([]byte, error) {
	data := make([]byte, s.pageBytes)
	data[0] = byte(pid)
	return data, nil
}

// recEnv records the time a store asks it to wait instead of waiting, and
// honors ctx by waiting nothing once it has ended.
type recEnv struct{ slept time.Duration }

func (e *recEnv) Sleep(ctx context.Context, d time.Duration) {
	if ctx.Err() == nil {
		e.slept += d
	}
}

// ctxEnv waits on the wall clock until d passes or ctx ends.
type ctxEnv struct{}

func (ctxEnv) Sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Rules: []Rule{{Kind: Kind(99), Prob: 0.5}}},
		{Rules: []Rule{{Kind: KindError, Prob: 0}}},
		{Rules: []Rule{{Kind: KindError, Prob: 1.5}}},
		{Rules: []Rule{{Kind: KindError, Prob: 0.5, FirstPage: -1}}},
		{Rules: []Rule{{Kind: KindError, Prob: 0.5, FirstPage: 10, LastPage: 5}}},
		{Rules: []Rule{{Kind: KindError, Prob: 0.5, UntilAttempt: -1}}},
		{Rules: []Rule{{Kind: KindLatency, Prob: 0.5}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
	good := Plan{Seed: 7, Rules: []Rule{
		{Kind: KindError, Prob: 0.1, UntilAttempt: 3},
		{Kind: KindLatency, Prob: 1, Latency: time.Millisecond, FirstPage: 5, LastPage: 9},
	}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDecisionDeterminism is the package's core guarantee: fault decisions
// are a pure function of (seed, page, attempt), independent of call order
// and of how many goroutines ask.
func TestDecisionDeterminism(t *testing.T) {
	plan := Plan{Seed: 42, Rules: []Rule{
		{Kind: KindError, Prob: 0.3, UntilAttempt: 2},
		{Kind: KindLatency, Prob: 0.2, Latency: time.Microsecond},
	}}
	type key struct {
		pid     disk.PageID
		attempt int
	}
	forward := make(map[key]int)
	for pid := disk.PageID(0); pid < 500; pid++ {
		for attempt := 0; attempt < 4; attempt++ {
			forward[key{pid, attempt}] = plan.decide(pid, attempt)
		}
	}
	// Re-query in reverse order and from concurrent goroutines.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pid := disk.PageID(499); pid >= 0; pid-- {
				for attempt := 3; attempt >= 0; attempt-- {
					if got := plan.decide(pid, attempt); got != forward[key{pid, attempt}] {
						t.Errorf("page %d attempt %d: decision %d, want %d", pid, attempt, got, forward[key{pid, attempt}])
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	// A fault plan that never fires anything would test nothing.
	fired := 0
	for _, d := range forward {
		if d >= 0 {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("plan fired no faults across 2000 decisions")
	}
	// Different seeds explore different schedules.
	other := plan
	other.Seed = 43
	diff := 0
	for k, d := range forward {
		if other.decide(k.pid, k.attempt) != d {
			diff++
		}
	}
	if diff == 0 {
		t.Error("seeds 42 and 43 produced identical decision tables")
	}
}

// TestHash01Range spot-checks the hash is in [0,1) and spreads mass.
func TestHash01Range(t *testing.T) {
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		v := hash01(99, 0, disk.PageID(i), 0)
		if v < 0 || v >= 1 {
			t.Fatalf("hash01 out of range: %g", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Errorf("hash01 mean %g far from 0.5", mean)
	}
}

func TestErrorInjection(t *testing.T) {
	// Prob 1 on pages [10,19], first two attempts only.
	st := MustNewStore(memStore{pageBytes: 8}, Plan{Seed: 1, Rules: []Rule{
		{Kind: KindError, Prob: 1, FirstPage: 10, LastPage: 19, UntilAttempt: 2},
	}})
	ctx := context.Background()
	if _, err := st.ReadPageAt(ctx, ctxEnv{}, 0, 10, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("attempt 0: err = %v, want ErrInjected", err)
	}
	if _, err := st.ReadPageAt(ctx, ctxEnv{}, 0, 10, 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("attempt 1: err = %v, want ErrInjected", err)
	}
	data, err := st.ReadPageAt(ctx, ctxEnv{}, 0, 10, 2)
	if err != nil || data[0] != 10 {
		t.Fatalf("attempt 2: data %v err %v, want healthy read", data, err)
	}
	if data, err := st.ReadPage(9); err != nil || data[0] != 9 {
		t.Fatalf("page outside range: data %v err %v", data, err)
	}
	c := st.Counters()
	if c.InjectedErrors != 2 || c.Reads != 4 {
		t.Errorf("counters %+v, want 2 errors over 4 reads", c)
	}
}

func TestLatencyInjection(t *testing.T) {
	st := MustNewStore(memStore{pageBytes: 8}, Plan{Rules: []Rule{
		{Kind: KindLatency, Prob: 1, Latency: 50 * time.Millisecond},
	}})
	// The latency is spent on the caller's environment, here a recorder.
	env := new(recEnv)
	if _, err := st.ReadPageAt(context.Background(), env, 0, 3, 0); err != nil {
		t.Fatal(err)
	}
	if env.slept != 50*time.Millisecond {
		t.Errorf("slept %v, want 50ms", env.slept)
	}
	// A timeout shorter than the latency cuts the wait at the timeout.
	env = new(recEnv)
	if _, err := st.ReadPageAt(context.Background(), env, 20*time.Millisecond, 3, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("read past its timeout returned %v, want DeadlineExceeded", err)
	}
	if env.slept != 20*time.Millisecond {
		t.Errorf("slept %v, want the 20ms timeout", env.slept)
	}
	if c := st.Counters(); c.LatencyEvents != 2 || c.InjectedLatency != 100*time.Millisecond {
		t.Errorf("counters %+v", c)
	}
}

// waitingStore is an AttemptReader that waits delay on the env it is handed
// and records the timeout it got.
type waitingStore struct {
	memStore
	delay   time.Duration
	timeout time.Duration
}

func (s *waitingStore) ReadPageAt(ctx context.Context, env Env, timeout time.Duration, pid disk.PageID, _ int) ([]byte, error) {
	s.timeout = timeout
	if err := Wait(ctx, env, s.delay, timeout); err != nil {
		return nil, err
	}
	return s.ReadPage(pid)
}

// TestAttemptReaderUnderneath checks that a Store hands an AttemptReader it
// wraps the attempt's env and what the injected latency left of the
// timeout, so the inner wait ends with the attempt.
func TestAttemptReaderUnderneath(t *testing.T) {
	inner := &waitingStore{memStore: memStore{pageBytes: 8}, delay: 30 * time.Millisecond}
	st := MustNewStore(inner, Plan{Rules: []Rule{
		{Kind: KindLatency, FirstPage: 1, LastPage: 1, Prob: 1, Latency: 50 * time.Millisecond},
	}})
	env := new(recEnv)
	if _, err := st.ReadPageAt(context.Background(), env, 0, 3, 0); err != nil {
		t.Fatal(err)
	}
	if env.slept != 30*time.Millisecond || inner.timeout != 0 {
		t.Errorf("healthy read: slept %v with timeout %v, want 30ms unbounded", env.slept, inner.timeout)
	}
	env = new(recEnv)
	_, err := st.ReadPageAt(context.Background(), env, 70*time.Millisecond, 1, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("latency + inner wait past the timeout returned %v, want DeadlineExceeded", err)
	}
	if env.slept != 70*time.Millisecond || inner.timeout != 20*time.Millisecond {
		t.Errorf("slept %v, inner timeout %v; want 70ms in all, 20ms left for the inner read", env.slept, inner.timeout)
	}
}

func TestStallHonorsContext(t *testing.T) {
	st := MustNewStore(memStore{pageBytes: 8}, Plan{Rules: []Rule{
		{Kind: KindStall, Prob: 1, UntilAttempt: 1},
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := st.ReadPageAt(ctx, ctxEnv{}, 0, 7, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled read returned %v, want DeadlineExceeded", err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Error("stall returned before the context deadline")
	}
	// A read timeout ends a stall too, on the caller's clock.
	env := new(recEnv)
	if _, err := st.ReadPageAt(context.Background(), env, 3*time.Millisecond, 7, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stall under a read timeout returned %v, want DeadlineExceeded", err)
	}
	if env.slept != 3*time.Millisecond {
		t.Errorf("stall waited %v, want the 3ms timeout", env.slept)
	}
	// Attempt 1 is past the stall window: the retry recovers.
	if _, err := st.ReadPageAt(context.Background(), ctxEnv{}, 0, 7, 1); err != nil {
		t.Fatalf("recovery attempt failed: %v", err)
	}
	if c := st.Counters(); c.Stalls != 2 {
		t.Errorf("stalls = %d, want 2", c.Stalls)
	}
}

func TestTornRead(t *testing.T) {
	st := MustNewStore(memStore{pageBytes: 64}, Plan{Rules: []Rule{
		{Kind: KindTorn, Prob: 1, UntilAttempt: 1},
	}})
	data, err := st.ReadPage(4)
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("err = %v, want ErrTorn", err)
	}
	if len(data) != 32 {
		t.Errorf("torn read returned %d bytes, want 32", len(data))
	}
	if c := st.Counters(); c.TornReads != 1 {
		t.Errorf("torn reads = %d, want 1", c.TornReads)
	}
}

// TestFirstMatchingRuleWins checks rule order is significant.
func TestFirstMatchingRuleWins(t *testing.T) {
	st := MustNewStore(memStore{pageBytes: 8}, Plan{Rules: []Rule{
		{Kind: KindError, Prob: 1, FirstPage: 5, LastPage: 5},
		{Kind: KindTorn, Prob: 1},
	}})
	if _, err := st.ReadPage(5); !errors.Is(err, ErrInjected) {
		t.Errorf("page 5: err = %v, want the first rule's ErrInjected", err)
	}
	if _, err := st.ReadPage(6); !errors.Is(err, ErrTorn) {
		t.Errorf("page 6: err = %v, want the second rule's ErrTorn", err)
	}
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(nil, Plan{}); err == nil {
		t.Error("nil inner reader accepted")
	}
	if _, err := NewStore(memStore{8}, Plan{Rules: []Rule{{Kind: KindError}}}); err == nil {
		t.Error("invalid plan accepted")
	}
}
