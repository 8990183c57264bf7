package realtime

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"scanshare/internal/buffer"
	"scanshare/internal/core"
	"scanshare/internal/disk"
	"scanshare/internal/fault"
	"scanshare/internal/metrics"
)

// checkGroupInvariants validates the structural grouping invariants on one
// consistent Manager snapshot: every group names its trailer first and its
// leader last, members are in circular position order with forward hops
// summing to the group extent, the total extent respects the pool budget,
// no scan is in two groups, and detached scans are in none.
func checkGroupInvariants(t *testing.T, snap core.Snapshot, tablePages, budget int) {
	t.Helper()
	scans := make(map[core.ScanID]core.ScanInfo, len(snap.Scans))
	for _, sc := range snap.Scans {
		scans[sc.ID] = sc
	}
	grouped := make(map[core.ScanID]bool)
	total := 0
	for _, g := range snap.Groups {
		if len(g.Members) == 0 {
			t.Errorf("empty group on table %d", g.Table)
			continue
		}
		if g.Trailer != g.Members[0] {
			t.Errorf("group trailer %d is not the first member %d", g.Trailer, g.Members[0])
		}
		if g.Leader != g.Members[len(g.Members)-1] {
			t.Errorf("group leader %d is not the last member %d", g.Leader, g.Members[len(g.Members)-1])
		}
		span := 0
		for i, id := range g.Members {
			if grouped[id] {
				t.Errorf("scan %d is a member of two groups", id)
			}
			grouped[id] = true
			sc, ok := scans[id]
			if !ok {
				t.Errorf("group member %d is not a registered scan", id)
				continue
			}
			if sc.Detached {
				t.Errorf("detached scan %d is still grouped", id)
			}
			if sc.Table != g.Table {
				t.Errorf("scan %d of table %d grouped under table %d", id, sc.Table, g.Table)
			}
			if i > 0 {
				prev, ok := scans[g.Members[i-1]]
				if !ok {
					continue
				}
				d := sc.Position - prev.Position
				if d < 0 {
					d += tablePages
				}
				span += d
			}
		}
		if span != g.ExtentPages {
			t.Errorf("group extent %d pages, but member hops span %d (members %v)",
				g.ExtentPages, span, g.Members)
		}
		total += g.ExtentPages
	}
	if total > budget {
		t.Errorf("total group extent %d pages exceeds the pool budget %d", total, budget)
	}
}

// TestChaosStress is the fault-injected counterpart of TestRunnerStress: 20
// free-running goroutine scans (-race exercised) driven through a fault plan
// combining a permanently bad page band, a stall band that recovers on retry,
// transient error bursts, and latency spikes. The runner must absorb all of
// it: transient faults vanish into retries, stalls are cut by the per-read
// timeout, the bad band degrades deterministically, and scans crossing it
// detach from — and later rejoin — group coordination while a concurrent
// poller verifies the grouping invariants never break. The whole scenario
// runs under both translation tables: the array variant routes read-mostly
// hits through the lock-free optimistic path while evictions recycle frames
// underneath it, which is exactly the interleaving the race pass exists to
// interrogate.
func TestChaosStress(t *testing.T) {
	for _, translation := range buffer.Translations() {
		t.Run(translation, func(t *testing.T) { runChaosStress(t, translation) })
	}
}

func runChaosStress(t *testing.T, translation string) {
	const (
		tablePages = 400
		poolPages  = 200
		pageBytes  = 64
		scans      = 20
		base       = disk.PageID(1000)

		badFirst, badLast = 300, 310 // device pages base+badFirst..base+badLast fail every attempt
	)
	plan := fault.Plan{
		Seed: 7,
		Rules: []fault.Rule{
			{Kind: fault.KindError, FirstPage: base + badFirst, LastPage: base + badLast, Prob: 1},
			{Kind: fault.KindStall, FirstPage: base + 100, LastPage: base + 140, Prob: 0.3, UntilAttempt: 1},
			{Kind: fault.KindError, Prob: 0.15, UntilAttempt: 2},
			{Kind: fault.KindLatency, Prob: 0.05, Latency: 200 * time.Microsecond},
		},
	}
	store := fault.MustNewStore(testStore{pageBytes: pageBytes}, plan)

	pool := buffer.MustNewPoolOpts(buffer.PoolOptions{Capacity: poolPages, Translation: translation})
	mgr := core.MustNewManager(testManagerConfig(poolPages))
	col := new(metrics.Collector)
	r, err := NewRunner(Config{
		Pool:                  pool,
		Manager:               mgr,
		Store:                 store,
		Collector:             col,
		PrefetchWorkers:       4,
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
	// Partial ranges that dodge the bad band, and mid-flight terminations.
	specs[5].StartPage, specs[5].EndPage = 50, 250
	specs[11].StartPage, specs[11].EndPage = 50, 250
	specs[7].StopAfterPages = 60
	specs[17].StopAfterPages = 5

	// Poll snapshots throughout: the grouping invariants must hold at every
	// instant of the detach/rejoin churn, not just at the end.
	pollDone := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-pollDone:
				return
			default:
				checkGroupInvariants(t, mgr.Snapshot(), tablePages, poolPages)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	results, err := r.Run(context.Background(), specs)
	close(pollDone)
	poller.Wait()
	if err != nil {
		t.Fatal(err)
	}

	pool.CheckInvariants()
	if n := mgr.ActiveScans(); n != 0 {
		t.Errorf("%d scans still registered", n)
	}

	// At rest every miss either completed (Fill) or was walked back
	// (Abort), and the abort correction keeps the delivered-pages identity
	// exact. This fault plan guarantees failed reads, so Aborts must move.
	ps := pool.Stats()
	if ps.Misses != ps.Fills+ps.Aborts {
		t.Errorf("pool accounting: misses %d != fills %d + aborts %d", ps.Misses, ps.Fills, ps.Aborts)
	}
	if ps.Aborts == 0 {
		t.Error("fault plan produced no aborted reads; the abort path went unexercised")
	}
	if got, want := ps.PagesDelivered(), ps.Hits+ps.Fills; got != want {
		t.Errorf("pages delivered %d, want hits %d + fills %d", got, ps.Hits, ps.Fills)
	}

	// The bad band degrades deterministically: the fault decision is a pure
	// function of (seed, rule, page, attempt), so exactly the band pages in
	// range fail for every scan, and the checksum over the surviving pages
	// is exact.
	fullSum := wantChecksum(base, 0, tablePages, pageBytes) - wantChecksum(base, badFirst, badLast+1, pageBytes)
	partialSum := wantChecksum(base, 50, 250, pageBytes)
	// Reads coalesce: a scan whose wait on another scan's read ended in
	// that read's failure records a degraded page without a miss of its own.
	var sum struct{ retries, timeouts, degraded, coalescedFailures, detaches, rejoins, pages int64 }
	for i, res := range results {
		spec := specs[i]
		if res.Hits+res.Misses != int64(res.PagesRead+res.DegradedPages)-res.CoalescedFailures {
			t.Errorf("scan %d: hits %d + misses %d != pages %d + degraded %d - coalesced failures %d",
				i, res.Hits, res.Misses, res.PagesRead, res.DegradedPages, res.CoalescedFailures)
		}
		sum.coalescedFailures += res.CoalescedFailures
		sum.retries += res.ReadRetries
		sum.timeouts += res.ReadTimeouts
		sum.degraded += int64(res.DegradedPages)
		sum.detaches += int64(res.Detaches)
		sum.rejoins += int64(res.Rejoins)
		sum.pages += int64(res.PagesRead)
		if spec.StopAfterPages > 0 {
			continue // termination point vs. band is timing-dependent
		}
		if spec.EndPage != 0 {
			// The partial range misses the bad band entirely.
			if res.DegradedPages != 0 || res.Checksum != partialSum {
				t.Errorf("scan %d: degraded %d, checksum %d, want 0 and %d",
					i, res.DegradedPages, res.Checksum, partialSum)
			}
			continue
		}
		if want := badLast - badFirst + 1; res.DegradedPages != want {
			t.Errorf("scan %d: %d degraded pages, want exactly the %d-page bad band",
				i, res.DegradedPages, want)
		}
		if res.PagesRead != tablePages-(badLast-badFirst+1) {
			t.Errorf("scan %d: read %d pages, want %d", i, res.PagesRead, tablePages-(badLast-badFirst+1))
		}
		if res.Checksum != fullSum {
			t.Errorf("scan %d: checksum %d, want %d (read wrong pages?)", i, res.Checksum, fullSum)
		}
		// A scan detaches on its own failed reads; one that met every bad
		// page as a coalesced failure never read one itself.
		if res.Detaches < 1 && res.CoalescedFailures < int64(badLast-badFirst+1) {
			t.Errorf("scan %d crossed the bad band without detaching", i)
		}
	}
	if sum.detaches == 0 || sum.degraded == 0 || sum.retries == 0 {
		t.Errorf("chaos run injected nothing: %+v", sum)
	}
	if sum.rejoins > sum.detaches {
		t.Errorf("%d rejoins exceed %d detaches", sum.rejoins, sum.detaches)
	}

	// Collector, manager, and per-scan counters must agree.
	cs := col.Snapshot()
	if cs.ReadRetries != sum.retries || cs.ReadTimeouts != sum.timeouts ||
		cs.PagesFailed != sum.degraded || cs.ScanDetaches != sum.detaches || cs.ScanRejoins != sum.rejoins {
		t.Errorf("collector failure counters %+v disagree with result sums %+v", cs, sum)
	}
	// The collector counts every acquired page, including ones whose read
	// later failed — the degraded pages appear as misses, except those a
	// scan met as a coalesced failure, which it never acquired.
	if cs.PagesRead != sum.pages+sum.degraded-sum.coalescedFailures {
		t.Errorf("collector pages %d, results total %d + %d degraded - %d coalesced failures",
			cs.PagesRead, sum.pages, sum.degraded, sum.coalescedFailures)
	}
	st := mgr.Stats()
	if st.ScanDetaches != sum.detaches || st.ScanRejoins != sum.rejoins {
		t.Errorf("manager detach/rejoin stats %d/%d, results %d/%d",
			st.ScanDetaches, st.ScanRejoins, sum.detaches, sum.rejoins)
	}
	if st.ScansStarted != scans || st.ScansFinished != scans {
		t.Errorf("manager stats unbalanced: %+v", st)
	}

	fc := store.Counters()
	if fc.InjectedErrors == 0 || fc.Stalls == 0 || fc.LatencyEvents == 0 {
		t.Errorf("fault plan barely fired: %+v", fc)
	}

	// Translation-specific accounting: per-scan optimistic hits, the pool's
	// lock-free counters, and the collector must tell one story — and the
	// array variant must actually have driven traffic through the fast path,
	// or this whole subtest proved nothing about it.
	var optSum int64
	for _, res := range results {
		optSum += res.OptimisticHits
	}
	if translation == buffer.TranslationMap {
		if optSum != 0 || ps.OptimisticHits != 0 || cs.OptimisticHits != 0 {
			t.Errorf("map translation recorded optimistic hits: scans %d, pool %d, collector %d",
				optSum, ps.OptimisticHits, cs.OptimisticHits)
		}
		return
	}
	if optSum == 0 {
		t.Error("array-translation chaos run never hit the optimistic path")
	}
	if cs.OptimisticHits != optSum {
		t.Errorf("collector optimistic hits %d, per-scan sum %d", cs.OptimisticHits, optSum)
	}
	// Scan workers are the only ReadOptimistic callers (prefetch stages
	// pages through Acquire), so the pool's count must match the per-scan
	// sum exactly, and every optimistic hit is also a hit.
	if ps.OptimisticHits != optSum {
		t.Errorf("pool optimistic hits %d, per-scan sum %d", ps.OptimisticHits, optSum)
	}
	if ps.OptimisticHits > ps.Hits {
		t.Errorf("optimistic hits %d exceed total hits %d", ps.OptimisticHits, ps.Hits)
	}
}

// chaosRun executes one KernelEnv run with fault injection and prefetch
// workers (0 for none) and returns the schedule, the manager event trace,
// and the results. Latency faults and stalls wait on the virtual clock, the
// read timeout is a deadline on it, so the whole run is a pure function of
// the two seeds.
func chaosRun(t *testing.T, schedSeed, faultSeed int64, prefetch int) ([]TraceStep, []core.Event, []ScanResult) {
	t.Helper()
	const (
		tablePages = 160
		poolPages  = 96
		scans      = 6
		badFirst   = 100
		badLast    = 104
	)
	plan := fault.Plan{
		Seed: faultSeed,
		Rules: []fault.Rule{
			{Kind: fault.KindError, FirstPage: badFirst, LastPage: badLast, Prob: 1},
			{Kind: fault.KindStall, FirstPage: 40, LastPage: 60, Prob: 0.25, UntilAttempt: 1},
			{Kind: fault.KindError, Prob: 0.1, UntilAttempt: 2},
			{Kind: fault.KindLatency, Prob: 0.1, Latency: 300 * time.Microsecond},
		},
	}
	store := fault.MustNewStore(testStore{pageBytes: 16}, plan)

	pool := buffer.MustNewPool(poolPages)
	mgr := core.MustNewManager(testManagerConfig(poolPages))
	var events []core.Event
	mgr.SetOnEvent(func(ev core.Event) { events = append(events, ev) })

	env := NewKernelEnv(schedSeed, 500*time.Microsecond)
	hook, steps := stepRecorder(env)
	r, err := NewRunner(Config{
		Pool:                  pool,
		Manager:               mgr,
		Store:                 store,
		Env:                   env,
		Hook:                  hook,
		PrefetchWorkers:       prefetch,
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
			EstimatedDuration: time.Duration(5+i) * time.Millisecond,
			StartDelay:        time.Duration(i) * time.Millisecond,
			PageDelay:         time.Duration(50+10*(i%3)) * time.Microsecond,
		}
	}
	specs[4].StartPage, specs[4].EndPage = 30, 130

	results, err := r.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if n := mgr.ActiveScans(); n != 0 {
		t.Fatalf("sched seed %d: %d scans leaked", schedSeed, n)
	}
	pool.CheckInvariants()
	return *steps, events, results
}

// TestChaosReplaysSeed is the fault-layer determinism guarantee end to end:
// one (schedule seed, fault seed) pair replays to an identical schedule
// trace, an identical manager event trace — detach and rejoin transitions
// included, timestamps and all — and identical per-scan results.
func TestChaosReplaysSeed(t *testing.T) {
	trace1, events1, res1 := chaosRun(t, 42, 9, 0)
	trace2, events2, res2 := chaosRun(t, 42, 9, 0)
	if len(trace1) == 0 {
		t.Fatal("empty schedule trace")
	}
	if !reflect.DeepEqual(trace1, trace2) {
		t.Errorf("chaos run did not replay: traces diverge\nfirst:\n%s\nsecond:\n%s",
			FormatTrace(trace1), FormatTrace(trace2))
	}
	if !reflect.DeepEqual(events1, events2) {
		t.Errorf("manager event traces diverge (%d vs %d events)", len(events1), len(events2))
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("per-scan results diverge:\nfirst:  %+v\nsecond: %+v", res1, res2)
	}

	// The plan's bad band guarantees degradation and detaches happened at
	// all — a replay of two healthy runs would prove nothing.
	var detaches, rejoins, degraded int
	for _, res := range res1 {
		detaches += res.Detaches
		rejoins += res.Rejoins
		degraded += res.DegradedPages
	}
	if detaches == 0 || degraded == 0 {
		t.Errorf("chaos plan injected no degradation (%d detaches, %d degraded pages)", detaches, degraded)
	}
	var evDetach, evRejoin int
	for _, ev := range events1 {
		switch ev.Kind {
		case core.EventScanDetached:
			evDetach++
		case core.EventScanRejoined:
			evRejoin++
		}
	}
	if evDetach != detaches || evRejoin != rejoins {
		t.Errorf("event trace has %d detaches / %d rejoins, results say %d / %d",
			evDetach, evRejoin, detaches, rejoins)
	}

	// A different schedule seed must explore a different interleaving, and a
	// different fault seed a different failure schedule.
	trace3, _, _ := chaosRun(t, 1337, 9, 0)
	if reflect.DeepEqual(trace1, trace3) {
		t.Logf("sched seeds 42 and 1337 produced identical traces (%d steps)", len(trace1))
	}
	_, _, res4 := chaosRun(t, 42, 10, 0)
	same := true
	for i := range res1 {
		if res1[i].ReadRetries != res4[i].ReadRetries || res1[i].ReadTimeouts != res4[i].ReadTimeouts {
			same = false
		}
	}
	if same {
		t.Logf("fault seeds 9 and 10 injected identical retry schedules")
	}
}

// TestChaosSweep replays a small sweep of (schedule, fault) seed pairs, with
// and without two prefetch workers; every pair must reproduce its own trace.
// This is the debugging loop a chaos failure would be hunted with, kept
// in-tree so it cannot rot.
func TestChaosSweep(t *testing.T) {
	for _, prefetch := range []int{0, 2} {
		for seed := int64(0); seed < 4; seed++ {
			a, _, _ := chaosRun(t, seed, seed+100, prefetch)
			b, _, _ := chaosRun(t, seed, seed+100, prefetch)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("seed pair (%d,%d) with %d prefetch workers did not replay", seed, seed+100, prefetch)
			}
		}
	}
}

// TestChaosScenarios drives focused single-failure-mode scenarios through
// free-running runs: a transient error burst that retries absorb completely,
// one permanently slow scan (its table sits in a latency band) that must not
// disturb healthy scans, and a stall-then-recover band cut by read timeouts.
func TestChaosScenarios(t *testing.T) {
	const (
		tablePages = 120
		poolPages  = 64
		pageBytes  = 32
		baseA      = disk.PageID(0)    // healthy table
		baseB      = disk.PageID(5000) // second table for the slow-scan case
	)
	fullSum := wantChecksum(baseA, 0, tablePages, pageBytes)
	slowSum := wantChecksum(baseB, 0, tablePages, pageBytes)

	cases := []struct {
		name         string
		rules        []fault.Rule
		slowScan     bool // add a scan of table B alongside the table-A scans
		wantRetries  bool
		wantTimeouts bool
	}{
		{
			name:        "error-burst",
			rules:       []fault.Rule{{Kind: fault.KindError, Prob: 0.3, UntilAttempt: 3}},
			wantRetries: true,
		},
		{
			name: "slow-scan",
			rules: []fault.Rule{{
				Kind: fault.KindLatency, FirstPage: baseB, LastPage: baseB + tablePages - 1,
				Prob: 1, Latency: 300 * time.Microsecond,
			}},
			slowScan: true,
		},
		{
			name: "stall-then-recover",
			rules: []fault.Rule{{
				Kind: fault.KindStall, Prob: 0.1, UntilAttempt: 1,
			}},
			wantRetries:  true,
			wantTimeouts: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := fault.MustNewStore(testStore{pageBytes: pageBytes},
				fault.Plan{Seed: 3, Rules: tc.rules})
			pool := buffer.MustNewPool(poolPages)
			mgr := core.MustNewManager(testManagerConfig(poolPages))
			col := new(metrics.Collector)
			r, err := NewRunner(Config{
				Pool:                pool,
				Manager:             mgr,
				Store:               store,
				Collector:           col,
				PrefetchWorkers:     2,
				ReadTimeout:         2 * time.Millisecond,
				MaxReadRetries:      4,
				RetryBackoff:        50 * time.Microsecond,
				DetachAfterFailures: 3,
			})
			if err != nil {
				t.Fatal(err)
			}

			specs := make([]ScanSpec, 6)
			for i := range specs {
				specs[i] = ScanSpec{
					Table:      1,
					TablePages: tablePages,
					PageID:     func(pageNo int) disk.PageID { return baseA + disk.PageID(pageNo) },
					StartDelay: time.Duration(i) * 300 * time.Microsecond,
					PageDelay:  20 * time.Microsecond,
				}
			}
			if tc.slowScan {
				specs = append(specs, ScanSpec{
					Table:      2,
					TablePages: tablePages,
					PageID:     func(pageNo int) disk.PageID { return baseB + disk.PageID(pageNo) },
				})
			}

			results, err := r.Run(context.Background(), specs)
			if err != nil {
				t.Fatal(err)
			}
			pool.CheckInvariants()
			for i, res := range results {
				// Every scenario is survivable: no failures surface, no
				// pages are lost, every byte arrives intact.
				if res.Err != nil || res.Stopped {
					t.Errorf("scan %d did not complete: err=%v stopped=%v", i, res.Err, res.Stopped)
				}
				if res.PagesRead != tablePages || res.DegradedPages != 0 {
					t.Errorf("scan %d: %d pages read, %d degraded; want %d and 0",
						i, res.PagesRead, res.DegradedPages, tablePages)
				}
				want := fullSum
				if tc.slowScan && i == len(results)-1 {
					want = slowSum
				}
				if res.Checksum != want {
					t.Errorf("scan %d: checksum %d, want %d", i, res.Checksum, want)
				}
			}

			cs := col.Snapshot()
			if tc.wantRetries && cs.ReadRetries == 0 {
				t.Error("no retries recorded under an error scenario")
			}
			if tc.wantTimeouts && cs.ReadTimeouts == 0 {
				t.Error("no read timeouts recorded under a stall scenario")
			}
			if tc.slowScan {
				if fc := store.Counters(); fc.LatencyEvents == 0 {
					t.Error("latency rule never fired for the slow table")
				}
			}
		})
	}
}
