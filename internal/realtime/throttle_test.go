package realtime

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"scanshare/internal/buffer"
	"scanshare/internal/core"
	"scanshare/internal/disk"
	"scanshare/internal/fault"
	"scanshare/internal/metrics"
)

// visitCounter counts OnPage deliveries per scan and page, for the
// every-page-exactly-once assertion. Each scan's callback runs on that
// scan's goroutine only, so a scan's row needs no lock.
type visitCounter [][]int

func newVisitCounter(scans, tablePages int) visitCounter {
	v := make(visitCounter, scans)
	for i := range v {
		v[i] = make([]int, tablePages)
	}
	return v
}

func (v visitCounter) check(t *testing.T) {
	t.Helper()
	for scan, pages := range v {
		for pageNo, n := range pages {
			if n != 1 {
				t.Errorf("scan %d saw page %d %d times, want once", scan, pageNo, n)
			}
		}
	}
}

// TestFreeStoreIsNeverThrottled: two full scans of one table, one of them
// slower per page, over a store whose reads cost nothing worth waiting for.
// They form a group and drift — the parent of this rule throttled the faster
// one here — and neither waits.
func TestFreeStoreIsNeverThrottled(t *testing.T) {
	const tablePages, poolPages = 300, 50 // the circle is wider than twice the grouping budget
	mcfg := core.DefaultConfig(poolPages)
	mcfg.PrefetchExtentPages = 8
	mcfg.MinSharePages = 4
	mgr := core.MustNewManager(mcfg)
	drifted := false
	mgr.SetOnEvent(func(ev core.Event) {
		// Group events are delivered in mutation order, one at a time.
		if ev.Kind == core.EventGroupSplit {
			drifted = true
		}
	})
	col := new(metrics.Collector)
	r, err := NewRunner(Config{
		Pool:      buffer.MustNewPool(poolPages),
		Manager:   mgr,
		Store:     testStore{pageBytes: 16},
		Collector: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	visits := newVisitCounter(2, tablePages)
	specs := make([]ScanSpec, 2)
	for i := range specs {
		specs[i] = ScanSpec{
			Table:      1,
			TablePages: tablePages,
			PageID:     func(pageNo int) disk.PageID { return disk.PageID(pageNo) },
			OnPage:     func(pageNo int, _ []byte) { visits[i][pageNo]++ },
		}
	}
	specs[1].PageDelay = 20 * time.Microsecond
	// The fast scan holds its first page until the slow one has its own, so
	// the two overlap however the goroutines happen to start.
	slowStarted := make(chan struct{})
	specs[0].OnPage = func(pageNo int, _ []byte) {
		visits[0][pageNo]++
		<-slowStarted
	}
	signalStarted := sync.OnceFunc(func() { close(slowStarted) })
	specs[1].OnPage = func(pageNo int, _ []byte) {
		visits[1][pageNo]++
		signalStarted()
	}

	results, err := r.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.ThrottleWait != 0 {
			t.Errorf("scan %d waited %v on a free store", i, res.ThrottleWait)
		}
		if res.PagesRead != tablePages {
			t.Errorf("scan %d read %d pages, want %d", i, res.PagesRead, tablePages)
		}
	}
	visits.check(t)
	st := mgr.Stats()
	if st.ThrottleEvents != 0 || st.ThrottleTime != 0 || st.FairnessExemptions != 0 {
		t.Errorf("manager throttled on a free store: %+v", st)
	}
	if cs := col.Snapshot(); cs.ThrottleEvents != 0 {
		t.Errorf("collector saw %d throttles", cs.ThrottleEvents)
	}
	if !drifted {
		t.Error("the scans never drifted out of their group: the test exercised nothing")
	}
}

// TestThrottledLeaderIsWokenByTrailer: reads cost a millisecond each, the
// trailer stalls after two extents, and the leader runs ahead until the
// reads a wait would save are worth more than the wait — it is throttled, so
// the rule prices waits and does not switch them off. The trailer then turns
// fast; the leader is woken as soon as the trailer is back within the
// threshold, long before its deadline, and the manager's fairness budget is
// charged the time it waited, not the time it was told to.
func TestThrottledLeaderIsWokenByTrailer(t *testing.T) {
	const (
		tablePages = 512
		poolPages  = 1024 // the whole table fits: the fast trailer rides hits
		stallAt    = 16   // trailer pages before it stalls
		leader     = 0
		trailer    = 1
	)
	mcfg := core.DefaultConfig(poolPages)
	mcfg.PrefetchExtentPages = 8
	mcfg.MinSharePages = 4
	mgr := core.MustNewManager(mcfg)
	var planned time.Duration // sum of advised waits; events arrive one at a time
	mgr.SetOnEvent(func(ev core.Event) {
		if ev.Kind == core.EventThrottled {
			planned += ev.Wait
		}
	})

	store := fault.MustNewStore(testStore{pageBytes: 16}, fault.Plan{
		Rules: []fault.Rule{{Kind: fault.KindLatency, Prob: 1, Latency: time.Millisecond}},
	})
	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	col := new(metrics.Collector)
	r, err := NewRunner(Config{
		Pool:      buffer.MustNewPool(poolPages),
		Manager:   mgr,
		Store:     store,
		Collector: col,
		Hook: func(scan int, site Site) {
			// The trailer turns fast the moment the leader is throttled. Should
			// the leader finish unthrottled, release the trailer anyway: the
			// assertions below then fail instead of the test hanging.
			if scan == leader && (site == SiteThrottle || site == SiteEndScan) {
				openGate()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	visits := newVisitCounter(2, tablePages)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	specs := make([]ScanSpec, 2)
	for i := range specs {
		specs[i] = ScanSpec{
			Table:      1,
			TablePages: tablePages,
			PageID:     func(pageNo int) disk.PageID { return disk.PageID(pageNo) },
			OnPage:     func(pageNo int, _ []byte) { visits[i][pageNo]++ },
		}
	}
	seen := 0
	specs[trailer].OnPage = func(pageNo int, _ []byte) {
		visits[trailer][pageNo]++
		if seen++; seen <= stallAt {
			time.Sleep(time.Millisecond) // slow: ~2ms a page with the read
		}
		if seen == stallAt {
			select { // stalled
			case <-gate:
			case <-ctx.Done():
			}
		}
	}

	results, err := r.Run(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Stopped || res.PagesRead != tablePages {
			t.Fatalf("scan %d: stopped=%v after %d/%d pages", i, res.Stopped, res.PagesRead, tablePages)
		}
	}
	visits.check(t)

	st := mgr.Stats()
	waited := results[leader].ThrottleWait
	if st.ThrottleEvents == 0 || planned == 0 {
		t.Fatalf("leader never throttled although reads cost 1ms: %+v", st)
	}
	if results[trailer].ThrottleWait != 0 {
		t.Errorf("trailer waited %v", results[trailer].ThrottleWait)
	}
	if waited >= planned {
		t.Errorf("leader waited %v of a planned %v: not woken before its deadline", waited, planned)
	}
	if st.ThrottleTime != waited {
		t.Errorf("manager charged %v, leader measured %v", st.ThrottleTime, waited)
	}
	if cs := col.Snapshot(); cs.ThrottleWait != waited || cs.ThrottleEvents != st.ThrottleEvents {
		t.Errorf("collector: %d throttles, %v; manager: %d, leader measured %v",
			cs.ThrottleEvents, cs.ThrottleWait, st.ThrottleEvents, waited)
	}
	t.Logf("planned %v, waited %v, %d throttle event(s)", planned, waited, st.ThrottleEvents)
}

// TestCancelWhileParked: a leader parked on a multi-second throttle leaves
// through ctx at once, deregisters, and is charged what it waited.
func TestCancelWhileParked(t *testing.T) {
	const tablePages, poolPages = 2000, 512
	mcfg := core.DefaultConfig(poolPages)
	mcfg.PrefetchExtentPages = 8
	mcfg.MinSharePages = 4
	mcfg.MaxWaitPerUpdate = time.Minute
	mgr := core.MustNewManager(mcfg)
	// The store is free; tell the manager otherwise, firmly enough that the
	// runner's own observations do not talk it out of it within this test.
	mgr.ObserveReadCost(1000, 1000*time.Second)

	before := runtime.NumGoroutine()
	parked := make(chan struct{})
	notifyParked := sync.OnceFunc(func() { close(parked) })
	r, err := NewRunner(Config{
		Pool:    buffer.MustNewPool(poolPages),
		Manager: mgr,
		Store:   testStore{pageBytes: 16},
		Hook: func(scan int, site Site) {
			if site == SiteThrottle {
				notifyParked()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	specs := make([]ScanSpec, 2)
	for i := range specs {
		specs[i] = ScanSpec{
			Table:      1,
			TablePages: tablePages,
			PageID:     func(pageNo int) disk.PageID { return disk.PageID(pageNo) },
			// Ten minutes for the table: a trailer estimated at 3.3 pages/s
			// makes every excess page worth 300ms of wait (a read is said to
			// cost 1s), and the leader's fairness budget does not cap it.
			EstimatedDuration: 10 * time.Minute,
		}
	}
	specs[1].OnPage = func(int, []byte) { <-ctx.Done() } // the trailer never moves

	var planned time.Duration
	mgr.SetOnEvent(func(ev core.Event) {
		if ev.Kind == core.EventThrottled {
			planned += ev.Wait
		}
	})

	type outcome struct {
		results []ScanResult
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		results, err := r.Run(ctx, specs)
		done <- outcome{results, err}
	}()

	select {
	case <-parked:
	case <-time.After(20 * time.Second):
		t.Fatal("leader never throttled")
	}
	cancelled := time.Now()
	cancel()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	took := time.Since(cancelled)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if planned < 2*time.Second {
		t.Fatalf("planned wait %v: too short to tell a prompt return from an expired deadline", planned)
	}
	if took > planned/2 {
		t.Errorf("Run returned %v after cancel; the planned wait was %v", took, planned)
	}
	var waited time.Duration
	for i, res := range out.results {
		if !res.Stopped {
			t.Errorf("scan %d not marked stopped", i)
		}
		waited += res.ThrottleWait
	}
	if n := mgr.ActiveScans(); n != 0 {
		t.Errorf("%d scans still registered: EndScan did not run", n)
	}
	if st := mgr.Stats(); st.ThrottleTime != waited || waited >= planned {
		t.Errorf("manager charged %v, scans measured %v, planned %v", st.ThrottleTime, waited, planned)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines before Run, %d after", before, n)
	}
}
