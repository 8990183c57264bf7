package realtime

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"scanshare/internal/buffer"
	"scanshare/internal/core"
	"scanshare/internal/disk"
	"scanshare/internal/fault"
	"scanshare/internal/heap/heaptest"
	"scanshare/internal/metrics"
)

// gateStore wraps every read in a gate: the read does not return until the
// collector has seen wantJoined coalesced waiters (or a liberal deadline
// passes, so a bug fails assertions instead of hanging the test). Because
// ReadsCoalesced is counted *before* a waiter blocks, holding the leader's
// read open until the count arrives guarantees every other scan joined this
// flight — making the one-physical-read assertion deterministic rather than
// timing-dependent.
type gateStore struct {
	col        *metrics.Collector
	wantJoined int64
	reads      atomic.Int64
	err        error // returned (after the gate) instead of data when set
}

func (s *gateStore) ReadPage(pid disk.PageID) ([]byte, error) {
	s.reads.Add(1)
	deadline := time.Now().Add(5 * time.Second)
	for s.col.Snapshot().ReadsCoalesced < s.wantJoined && time.Now().Before(deadline) {
		time.Sleep(20 * time.Microsecond)
	}
	if s.err != nil {
		return nil, s.err
	}
	return []byte{byte(pid), byte(pid >> 8)}, nil
}

func coalesceSpecs(n int) []ScanSpec {
	specs := make([]ScanSpec, n)
	for i := range specs {
		specs[i] = ScanSpec{
			Table:      1,
			TablePages: 1,
			PageID:     func(pageNo int) disk.PageID { return disk.PageID(pageNo) },
		}
	}
	return specs
}

// TestCoalesceSharesOneRead pins the singleflight guarantee: four scans miss
// on the same page and exactly one physical read happens — the leader's — with
// the other three joining its flight and then hitting the filled frame.
func TestCoalesceSharesOneRead(t *testing.T) {
	const scans = 4
	col := new(metrics.Collector)
	store := &gateStore{col: col, wantJoined: scans - 1}
	pool := buffer.MustNewPool(8)
	mgr := core.MustNewManager(testManagerConfig(8))
	r, err := NewRunner(Config{
		Pool:          pool,
		Manager:       mgr,
		Store:         store,
		Collector:     col,
		CoalesceReads: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	results, err := r.Run(context.Background(), coalesceSpecs(scans))
	if err != nil {
		t.Fatal(err)
	}
	pool.CheckInvariants()

	if n := store.reads.Load(); n != 1 {
		t.Errorf("%d physical reads of the shared page, want exactly 1", n)
	}
	var misses, hits, coalesced int64
	for i, res := range results {
		if res.PagesRead != 1 || res.Err != nil {
			t.Errorf("scan %d: read %d pages, err %v", i, res.PagesRead, res.Err)
		}
		misses += res.Misses
		hits += res.Hits
		coalesced += res.CoalescedReads
		if res.CoalescedFailures != 0 {
			t.Errorf("scan %d: %d coalesced failures on a healthy read", i, res.CoalescedFailures)
		}
	}
	if misses != 1 || hits != scans-1 || coalesced != scans-1 {
		t.Errorf("misses %d, hits %d, coalesced %d; want 1, %d, %d",
			misses, hits, coalesced, scans-1, scans-1)
	}
	ps := pool.Stats()
	if ps.Misses != 1 || ps.Fills != 1 || ps.Hits != scans-1 || ps.Aborts != 0 {
		t.Errorf("pool stats %+v: want 1 miss filled once, %d hits, no aborts", ps, scans-1)
	}
	cs := col.Snapshot()
	if cs.ReadsCoalesced != scans-1 || cs.CoalescedFailures != 0 {
		t.Errorf("collector: %d coalesced (%d failed), want %d (0)",
			cs.ReadsCoalesced, cs.CoalescedFailures, scans-1)
	}
}

// TestCoalescedFailurePropagates pins the failure side: when the leading read
// fails for good, every joined waiter observes the same error without
// re-running the leader's retries, and the pool records exactly one Abort —
// the leader's — for the whole coalesced group.
func TestCoalescedFailurePropagates(t *testing.T) {
	const scans = 4
	sentinel := errors.New("head crash")
	col := new(metrics.Collector)
	store := &gateStore{col: col, wantJoined: scans - 1, err: sentinel}
	pool := buffer.MustNewPool(8)
	mgr := core.MustNewManager(testManagerConfig(8))
	r, err := NewRunner(Config{
		Pool:          pool,
		Manager:       mgr,
		Store:         store,
		Collector:     col,
		CoalesceReads: true,
		// First error is final: one physical attempt total proves waiters
		// inherit the outcome instead of re-running a retry ladder each.
	})
	if err != nil {
		t.Fatal(err)
	}

	results, err := r.Run(context.Background(), coalesceSpecs(scans))
	if err == nil {
		t.Fatal("run with a permanently failing page reported success")
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("run error %v does not wrap the store error", err)
	}
	pool.CheckInvariants()

	if n := store.reads.Load(); n != 1 {
		t.Errorf("%d physical reads, want 1: waiters duplicated the failed read", n)
	}
	for i, res := range results {
		if !errors.Is(res.Err, sentinel) {
			t.Errorf("scan %d: err %v, want the leader's store error", i, res.Err)
		}
		if res.PagesRead != 0 || res.DegradedPages != 0 {
			t.Errorf("scan %d: %d pages read, %d degraded after a fatal page failure",
				i, res.PagesRead, res.DegradedPages)
		}
	}
	ps := pool.Stats()
	if ps.Misses != 1 || ps.Aborts != 1 || ps.Fills != 0 || ps.Hits != 0 {
		t.Errorf("pool stats %+v: want exactly one miss, one abort, nothing delivered", ps)
	}
	if got := ps.PagesDelivered(); got != 0 {
		t.Errorf("pages delivered %d, want 0", got)
	}
	cs := col.Snapshot()
	if cs.ReadsCoalesced != scans-1 || cs.CoalescedFailures != scans-1 {
		t.Errorf("collector: %d coalesced, %d failed; want %d of each",
			cs.ReadsCoalesced, cs.CoalescedFailures, scans-1)
	}
	if cs.PagesFailed != scans {
		t.Errorf("collector pages failed %d, want %d (leader + every waiter)", cs.PagesFailed, scans)
	}
}

// TestCoalesceChaosStress is the coalescing-enabled, sharded-pool counterpart
// of TestChaosStress: 20 free-running scans over a multi-shard pool with
// coalescing on, driven through a fault plan with a permanently bad band,
// recovering stalls, transient errors, and latency spikes — run under -race.
// It asserts the adjusted accounting: a waiter whose flight failed records a
// degraded page with no miss of its own, so the per-scan identity becomes
// Hits + Misses == PagesRead + DegradedPages − CoalescedFailures, while the
// pool-side Misses == Fills + Aborts stays exact (one abort per failed read,
// never one per waiter).
func TestCoalesceChaosStress(t *testing.T) {
	const (
		tablePages = 400
		poolPages  = 200
		poolShards = 8
		pageBytes  = 64
		scans      = 20
		base       = disk.PageID(1000)

		badFirst, badLast = 300, 310
	)
	plan := fault.Plan{
		Seed: 11,
		Rules: []fault.Rule{
			{Kind: fault.KindError, FirstPage: base + badFirst, LastPage: base + badLast, Prob: 1},
			{Kind: fault.KindStall, FirstPage: base + 100, LastPage: base + 140, Prob: 0.3, UntilAttempt: 1},
			{Kind: fault.KindError, Prob: 0.15, UntilAttempt: 2},
			{Kind: fault.KindLatency, Prob: 0.05, Latency: 200 * time.Microsecond},
		},
	}
	store := fault.MustNewStore(testStore{pageBytes: pageBytes}, plan)

	pool := buffer.MustNewPoolShards(poolPages, poolShards)
	mgr := core.MustNewManager(testManagerConfig(poolPages))
	col := new(metrics.Collector)
	r, err := NewRunner(Config{
		Pool:                  pool,
		Manager:               mgr,
		Store:                 store,
		Collector:             col,
		PrefetchWorkers:       4,
		CoalesceReads:         true,
		ReadTimeout:           2 * time.Millisecond,
		MaxReadRetries:        3,
		RetryBackoff:          50 * time.Microsecond,
		MaxRetryBackoff:       200 * time.Microsecond,
		DetachAfterFailures:   2,
		ContinueOnPageFailure: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	pageID := func(pageNo int) disk.PageID { return base + disk.PageID(pageNo) }
	specs := make([]ScanSpec, scans)
	for i := range specs {
		specs[i] = ScanSpec{
			Table:             1,
			TablePages:        tablePages,
			PageID:            pageID,
			EstimatedDuration: 10 * time.Millisecond,
			Importance:        core.Importance(i % 3),
			StartDelay:        time.Duration(i) * 400 * time.Microsecond,
			PageDelay:         time.Duration(10+5*(i%4)) * time.Microsecond,
		}
	}

	results, err := r.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	pool.CheckInvariants()
	if n := mgr.ActiveScans(); n != 0 {
		t.Errorf("%d scans still registered", n)
	}

	// Pool-side accounting stays exact under coalescing: waiters never touch
	// the pool on a failed flight, so aborts count failed physical reads, not
	// failed waiters.
	ps := pool.Stats()
	if ps.Misses != ps.Fills+ps.Aborts {
		t.Errorf("pool accounting: misses %d != fills %d + aborts %d", ps.Misses, ps.Fills, ps.Aborts)
	}
	if ps.Aborts == 0 {
		t.Error("fault plan produced no aborted reads")
	}
	if got, want := ps.PagesDelivered(), ps.Hits+ps.Fills; got != want {
		t.Errorf("pages delivered %d, want hits %d + fills %d", got, ps.Hits, ps.Fills)
	}
	var shardSum buffer.Stats
	for _, s := range pool.ShardStats() {
		shardSum.LogicalReads += s.LogicalReads
		shardSum.Aborts += s.Aborts
	}
	if shardSum.LogicalReads != ps.LogicalReads || shardSum.Aborts != ps.Aborts {
		t.Errorf("per-shard stats (%d reads, %d aborts) disagree with aggregate (%d, %d)",
			shardSum.LogicalReads, shardSum.Aborts, ps.LogicalReads, ps.Aborts)
	}

	// Degradation is still deterministic per scan — only the bad band fails
	// permanently, whichever path (own read, coalesced wait, prefetch
	// fallback) a scan crossed it on — so counts and checksums stay exact.
	fullSum := wantChecksum(base, 0, tablePages, pageBytes) - wantChecksum(base, badFirst, badLast+1, pageBytes)
	var sumCoalesced, sumFailures int64
	for i, res := range results {
		if res.Hits+res.Misses != int64(res.PagesRead+res.DegradedPages)-res.CoalescedFailures {
			t.Errorf("scan %d: hits %d + misses %d != pages %d + degraded %d - coalesced failures %d",
				i, res.Hits, res.Misses, res.PagesRead, res.DegradedPages, res.CoalescedFailures)
		}
		if res.CoalescedFailures > int64(res.DegradedPages) {
			t.Errorf("scan %d: %d coalesced failures exceed %d degraded pages",
				i, res.CoalescedFailures, res.DegradedPages)
		}
		sumCoalesced += res.CoalescedReads
		sumFailures += res.CoalescedFailures
		if want := badLast - badFirst + 1; res.DegradedPages != want {
			t.Errorf("scan %d: %d degraded pages, want exactly the %d-page bad band",
				i, res.DegradedPages, want)
		}
		if res.Checksum != fullSum {
			t.Errorf("scan %d: checksum %d, want %d (read wrong or duplicate pages?)",
				i, res.Checksum, fullSum)
		}
	}
	if sumCoalesced == 0 {
		t.Error("no reads coalesced across 20 overlapping scans with stalls injected")
	}
	cs := col.Snapshot()
	if cs.ReadsCoalesced != sumCoalesced || cs.CoalescedFailures != sumFailures {
		t.Errorf("collector coalescing counters (%d, %d) disagree with result sums (%d, %d)",
			cs.ReadsCoalesced, cs.CoalescedFailures, sumCoalesced, sumFailures)
	}
}

// TestFlightNoWaiterAllocs pins the cost of a miss nobody else wanted:
// nothing, since finish recycles a flight nobody joined and the next begin
// reuses it. The done channel exists only once a waiter has joined, and a
// joined flight still wakes its waiter and is never handed out again.
func TestFlightNoWaiterAllocs(t *testing.T) {
	ft := newFlightTable()
	ft.finish(1, ft.begin(1, false), nil) // size the map, seed the freelist
	if !heaptest.RaceEnabled {
		got := testing.AllocsPerRun(100, func() {
			ft.finish(1, ft.begin(1, false), nil)
		})
		if got != 0 {
			t.Errorf("begin+finish with no waiter allocates %v objects, want 0", got)
		}
	}

	fl := ft.begin(2, false)
	joined, done, ok := ft.join(2)
	if !ok || joined != fl {
		t.Fatalf("join = %p, %v; want the live flight %p", joined, ok, fl)
	}
	wantErr := errors.New("read failed")
	ft.finish(2, fl, wantErr)
	select {
	case <-done:
	default:
		t.Fatal("finish did not close the joined flight's channel")
	}
	if joined.err != wantErr {
		t.Errorf("waiter sees err %v, want %v", joined.err, wantErr)
	}
	if _, _, ok := ft.join(2); ok {
		t.Error("a finished flight can still be joined")
	}
	if next := ft.begin(3, true); next == joined {
		t.Error("a joined flight was recycled while its waiter may still read it")
	} else if next.done != nil || next.err != nil || !next.fallback {
		t.Errorf("recycled flight not reset: done %v, err %v, fallback %v", next.done, next.err, next.fallback)
	}
}
