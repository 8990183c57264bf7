package realtime

import (
	"context"
	"sync"
	"testing"
	"time"

	"scanshare/internal/buffer"
	"scanshare/internal/core"
	"scanshare/internal/disk"
	"scanshare/internal/metrics"
)

// pushTestRunner builds a runner in push mode over testStore pages.
func pushTestRunner(t *testing.T, poolPages int, mut func(*Config)) (*Runner, *buffer.Pool, *metrics.Collector) {
	t.Helper()
	pool := buffer.MustNewPool(poolPages)
	mgr := core.MustNewManager(testManagerConfig(poolPages))
	col := new(metrics.Collector)
	cfg := Config{
		Pool:         pool,
		Manager:      mgr,
		Store:        testStore{pageBytes: 64},
		Collector:    col,
		PushDelivery: true,
	}
	if mut != nil {
		mut(&cfg)
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, pool, col
}

// TestPushDeliveryBasic: several full-table subscribers with staggered
// starts complete with exact coverage, correct checksums, and one physical
// lap over the table.
func TestPushDeliveryBasic(t *testing.T) {
	const (
		tablePages = 200
		poolPages  = 256 // >= tablePages: the stream's lap stays resident
		scans      = 6
		base       = disk.PageID(500)
	)
	r, pool, col := pushTestRunner(t, poolPages, nil)
	pageID := func(pageNo int) disk.PageID { return base + disk.PageID(pageNo) }

	var mu sync.Mutex
	visits := make([]map[int]int, scans)
	specs := make([]ScanSpec, scans)
	for i := range specs {
		i := i
		visits[i] = make(map[int]int)
		specs[i] = ScanSpec{
			Table:      1,
			TablePages: tablePages,
			PageID:     pageID,
			StartDelay: time.Duration(i) * 300 * time.Microsecond,
			OnPage: func(pageNo int, data []byte) {
				if len(data) == 0 {
					t.Error("OnPage with empty data")
				}
				mu.Lock()
				visits[i][pageNo]++
				mu.Unlock()
			},
		}
	}

	results, err := r.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	want := wantChecksum(base, 0, tablePages, 64)
	for i, res := range results {
		if res.PagesRead != tablePages {
			t.Errorf("scan %d: PagesRead %d, want %d", i, res.PagesRead, tablePages)
		}
		if res.Checksum != want {
			t.Errorf("scan %d: checksum %#x, want %#x", i, res.Checksum, want)
		}
		if res.Stopped || res.Err != nil {
			t.Errorf("scan %d: stopped=%v err=%v", i, res.Stopped, res.Err)
		}
		if res.PushBatches == 0 {
			t.Errorf("scan %d: no batches recorded", i)
		}
		if len(visits[i]) != tablePages {
			t.Errorf("scan %d: visited %d distinct pages, want %d", i, len(visits[i]), tablePages)
		}
		for p, n := range visits[i] {
			if n != 1 {
				t.Errorf("scan %d: page %d visited %d times", i, p, n)
			}
		}
	}

	// One physical lap: the table was read from the store exactly once,
	// however many subscribers consumed it.
	if misses := pool.Stats().Misses; misses != tablePages {
		t.Errorf("pool misses %d, want %d (one physical scan)", misses, tablePages)
	}
	cs := col.Snapshot()
	if cs.BatchesPushed == 0 {
		t.Error("collector recorded no pushed batches")
	}
	if cs.PagesRead != int64(scans*tablePages) {
		t.Errorf("collector PagesRead %d, want %d (delivered pages)", cs.PagesRead, scans*tablePages)
	}
	if cs.ScansStarted != scans || cs.ScansEnded != scans {
		t.Errorf("scan lifecycle: started %d ended %d, want %d", cs.ScansStarted, cs.ScansEnded, scans)
	}
}

// TestPushPartialRangesAndStops: partial footprints and mid-flight stops
// keep exact per-footprint coverage; the stream skips stretches nobody
// needs.
func TestPushPartialRangesAndStops(t *testing.T) {
	const (
		tablePages = 300
		poolPages  = 320
		base       = disk.PageID(0)
	)
	r, _, _ := pushTestRunner(t, poolPages, nil)
	pageID := func(pageNo int) disk.PageID { return base + disk.PageID(pageNo) }

	specs := []ScanSpec{
		{Table: 1, TablePages: tablePages, PageID: pageID, StartPage: 10, EndPage: 110},
		{Table: 1, TablePages: tablePages, PageID: pageID, StartPage: 150, EndPage: 300},
		{Table: 1, TablePages: tablePages, PageID: pageID, StopAfterPages: 40},
		{Table: 1, TablePages: tablePages, PageID: pageID, StartPage: 50, EndPage: 120,
			StartDelay: 500 * time.Microsecond},
	}
	results, err := r.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := results[0].Checksum, wantChecksum(base, 10, 110, 64); got != want || results[0].PagesRead != 100 {
		t.Errorf("scan 0: pages %d checksum %#x, want 100 / %#x", results[0].PagesRead, got, want)
	}
	if got, want := results[1].Checksum, wantChecksum(base, 150, 300, 64); got != want || results[1].PagesRead != 150 {
		t.Errorf("scan 1: pages %d checksum %#x, want 150 / %#x", results[1].PagesRead, got, want)
	}
	if !results[2].Stopped || results[2].PagesRead > 40 {
		t.Errorf("scan 2: stopped=%v pages=%d, want stopped, <=40", results[2].Stopped, results[2].PagesRead)
	}
	if got, want := results[3].Checksum, wantChecksum(base, 50, 120, 64); got != want || results[3].PagesRead != 70 {
		t.Errorf("scan 3: pages %d checksum %#x, want 70 / %#x", results[3].PagesRead, got, want)
	}
}

// TestPushBackpressureStarvationBound is the fairness proof: a deliberately
// slow subscriber must not stall the group past its stall budget. The fast
// subscribers complete, the reader's throttle-wait (stall) histogram stays
// under the bound, and the slow subscriber is demoted but still reaches
// exact coverage by pulling its remainder.
func TestPushBackpressureStarvationBound(t *testing.T) {
	const (
		tablePages = 128
		poolPages  = 160
		fastScans  = 3
		budget     = 10 * time.Millisecond
		base       = disk.PageID(0)
	)
	r, _, col := pushTestRunner(t, poolPages, func(cfg *Config) {
		cfg.PushStallBudget = budget
		cfg.SubscriberQueueBatches = 1
		cfg.PushBatchPages = 8
	})
	pageID := func(pageNo int) disk.PageID { return base + disk.PageID(pageNo) }

	specs := make([]ScanSpec, fastScans+1)
	for i := 0; i < fastScans; i++ {
		specs[i] = ScanSpec{Table: 1, TablePages: tablePages, PageID: pageID}
	}
	// The slow consumer: 2ms per page would hold the group for ~256ms,
	// far past the 10ms budget.
	specs[fastScans] = ScanSpec{Table: 1, TablePages: tablePages, PageID: pageID,
		PageDelay: 2 * time.Millisecond}

	start := time.Now()
	results, err := r.Run(context.Background(), specs)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}

	want := wantChecksum(base, 0, tablePages, 64)
	for i := 0; i < fastScans; i++ {
		if results[i].Err != nil || results[i].PagesRead != tablePages || results[i].Checksum != want {
			t.Errorf("fast scan %d: pages %d err %v", i, results[i].PagesRead, results[i].Err)
		}
		if results[i].PushDemoted {
			t.Errorf("fast scan %d demoted", i)
		}
	}
	slow := results[fastScans]
	if !slow.PushDemoted {
		t.Fatal("slow subscriber was not demoted")
	}
	if slow.PushSelfPulled == 0 {
		t.Error("demoted subscriber pulled nothing itself")
	}
	if slow.PagesRead != tablePages || slow.Checksum != want {
		t.Errorf("slow scan: pages %d checksum %#x, want %d / %#x",
			slow.PagesRead, slow.Checksum, tablePages, want)
	}

	cs := col.Snapshot()
	if cs.SubscriberStalls == 0 {
		t.Error("no subscriber stalls recorded")
	}
	if cs.PushDemotions == 0 {
		t.Error("no demotions recorded")
	}
	// Each individual reader stall is clipped at the remaining budget; a
	// generous scheduling slack keeps the bound assertion robust.
	if maxWait := cs.ThrottleWaitDist.Max; maxWait > budget+200*time.Millisecond {
		t.Errorf("reader stall %v exceeds budget %v (+slack)", maxWait, budget)
	}
	// The group must not be held to the slow consumer's pace: the slow
	// scan alone needs ~256ms of processing; the fast scans' stream must
	// finish well under a multiple of that.
	if wall > 5*time.Second {
		t.Errorf("run took %v; backpressure appears unbounded", wall)
	}
}

// TestPushCancellation: cancelling the run mid-stream stops subscribers as
// Stopped, not failed, and the reader goroutine exits.
func TestPushCancellation(t *testing.T) {
	const tablePages = 400
	r, _, _ := pushTestRunner(t, 64, nil)
	pageID := func(pageNo int) disk.PageID { return disk.PageID(pageNo) }

	ctx, cancel := context.WithCancel(context.Background())
	specs := []ScanSpec{
		{Table: 1, TablePages: tablePages, PageID: pageID, PageDelay: 500 * time.Microsecond},
		{Table: 1, TablePages: tablePages, PageID: pageID, PageDelay: 500 * time.Microsecond},
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	results, err := r.Run(ctx, specs)
	if err != nil {
		t.Fatalf("cancellation must not be an error: %v", err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Errorf("scan %d: err %v", i, res.Err)
		}
		if res.PagesRead == tablePages && !res.Stopped {
			continue // raced to completion before cancel; fine
		}
		if !res.Stopped {
			t.Errorf("scan %d: not marked stopped after cancel (pages %d)", i, res.PagesRead)
		}
	}
}

// TestPushOnPagePullMode: the OnPage callback also fires in pull mode, page
// for page, so consumers are mode-agnostic.
func TestPushOnPagePullMode(t *testing.T) {
	const tablePages = 60
	pool := buffer.MustNewPool(80)
	mgr := core.MustNewManager(testManagerConfig(80))
	r, err := NewRunner(Config{Pool: pool, Manager: mgr, Store: testStore{pageBytes: 64}})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	specs := []ScanSpec{{
		Table: 1, TablePages: tablePages,
		PageID: func(pageNo int) disk.PageID { return disk.PageID(pageNo) },
		OnPage: func(pageNo int, data []byte) { seen[pageNo]++ },
	}}
	if _, err := r.Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if len(seen) != tablePages {
		t.Fatalf("pull OnPage saw %d pages, want %d", len(seen), tablePages)
	}
	for p, n := range seen {
		if n != 1 {
			t.Errorf("page %d seen %d times", p, n)
		}
	}
}

// TestPushTableSizeMismatch: specs disagreeing on a table's page count are
// rejected up front.
func TestPushTableSizeMismatch(t *testing.T) {
	r, _, _ := pushTestRunner(t, 64, nil)
	pageID := func(pageNo int) disk.PageID { return disk.PageID(pageNo) }
	_, err := r.Run(context.Background(), []ScanSpec{
		{Table: 1, TablePages: 100, PageID: pageID},
		{Table: 1, TablePages: 200, PageID: pageID},
	})
	if err == nil {
		t.Fatal("mismatched TablePages accepted")
	}
}

// TestPushSettlesIgnoredThrottle: push subscribers do not wait out throttle
// advice — the reader's flow control does that job — so the manager must not
// charge them for it. A subscriber that stalls on its first page holds the
// stream to its queue while a second one runs ahead through the batches
// queued behind it; the manager, told that reads are dear, advises the
// leader to wait, and the run ends with the advice counted and no throttle
// time charged.
func TestPushSettlesIgnoredThrottle(t *testing.T) {
	const (
		tablePages, poolPages = 400, 512
		fast, slow            = 0, 1
	)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	slowStarted, fastStarted, leaderAhead := make(chan struct{}), make(chan struct{}), make(chan struct{})
	markSlow, markFast := sync.OnceFunc(func() { close(slowStarted) }), sync.OnceFunc(func() { close(fastStarted) })
	release := sync.OnceFunc(func() { close(leaderAhead) })
	defer release()
	pause := sync.OnceFunc(func() { time.Sleep(2 * time.Millisecond) })
	var mgr *core.Manager
	r, _, _ := pushTestRunner(t, poolPages, func(cfg *Config) {
		mgr = cfg.Manager
		mgr.ObserveReadCost(1000, 1000*time.Second)
		// Room for 72 pages in the stalled subscriber's queue: the fast
		// one gets well past the throttle threshold (16 pages) before the
		// reader blocks, and the manager throttles a gap the second time
		// it sees it grow.
		cfg.SubscriberQueueBatches = 8
		// The stream's second batch waits until the fast subscriber has
		// registered and had time to subscribe, so it joins the stream
		// before the stalled one's queue fills.
		cfg.Store = StoreFunc(func(pid disk.PageID) ([]byte, error) {
			if pid >= 8 {
				<-fastStarted
				pause()
			}
			return testStore{pageBytes: 64}.ReadPage(pid)
		})
		cfg.Hook = func(scan int, site Site) {
			switch {
			case scan == slow && site == SiteStarted:
				markSlow()
			case scan == fast && site == SiteStartScan:
				<-slowStarted
			case scan == fast && site == SiteStarted:
				markFast()
			}
		}
		cfg.OnAdvice = func(scan, processed int, adv core.Advice) {
			if scan == fast && processed >= 40 {
				release()
			}
		}
	})
	specs := make([]ScanSpec, 2)
	for i := range specs {
		specs[i] = ScanSpec{
			Table:             1,
			TablePages:        tablePages,
			PageID:            func(pageNo int) disk.PageID { return disk.PageID(pageNo) },
			EstimatedDuration: 10 * time.Minute, // a fairness budget no advice exhausts
		}
	}
	specs[slow].OnPage = func(int, []byte) {
		select {
		case <-leaderAhead:
		case <-ctx.Done():
		}
	}

	results, err := r.Run(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.PagesRead != tablePages || res.PushDemoted {
			t.Errorf("scan %d: %d pages, demoted %v", i, res.PagesRead, res.PushDemoted)
		}
	}
	st := mgr.Stats()
	if st.ThrottleEvents == 0 {
		t.Fatal("the manager never advised a wait: the test exercised nothing")
	}
	if st.ThrottleTime != 0 {
		t.Errorf("manager charged %v of throttle time over %d advices nobody waited out",
			st.ThrottleTime, st.ThrottleEvents)
	}
}
