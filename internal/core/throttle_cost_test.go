package core

import (
	"sync"
	"testing"
	"time"
)

// driftedPair registers leader a and trailer b on one table and drives them
// to the state of TestLeaderIsThrottledWhenGroupDrifts one report before the
// throttle: b at page 100 doing 100 pages/s, a at 150 with its gap baseline
// taken. a's next report at page 200 sees the gap at 100 pages, 68 past the
// 32-page threshold, which at b's speed is a 680ms wait — 250ms after the
// per-update cap.
func driftedPair(t *testing.T, m *Manager, leaderEstimate time.Duration) (a, b ScanID) {
	t.Helper()
	a, _, err := m.StartScan(ScanOpts{Table: 1, TablePages: 2000, EstimatedDuration: leaderEstimate}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ = startScan(t, m, 1, 2000, 0)
	report(t, m, b, 100, time.Second)
	report(t, m, a, 150, time.Second)
	return a, b
}

// TestThrottleCostRule: a wait is advised only when the reads it saves cost
// more than the wait. A manager nobody reported a read cost to decides as it
// always has.
func TestThrottleCostRule(t *testing.T) {
	const spent = time.Nanosecond // an estimate so short the fairness budget is already gone
	cases := []struct {
		name           string
		reads          int           // ObserveReadCost arguments; 0 reads = never called
		total          time.Duration //
		leaderEstimate time.Duration
		wantWait       time.Duration
		wantEvents     int64
		wantExemptions int64
	}{
		{name: "no cost observed", wantWait: 250 * time.Millisecond, wantEvents: 1},
		{name: "no cost observed, budget spent", leaderEstimate: spent, wantExemptions: 1},
		// 68 excess pages x 300ns = 20.4us of reads against a 250ms wait.
		{name: "cheap read", reads: 100, total: 100 * 300 * time.Nanosecond},
		{name: "cheap read, budget spent", reads: 100, total: 100 * 300 * time.Nanosecond, leaderEstimate: spent},
		{name: "free read", reads: 8, total: 0},
		// 68 x 10ms = 680ms of reads against the same 250ms.
		{name: "costly read", reads: 4, total: 40 * time.Millisecond, wantWait: 250 * time.Millisecond, wantEvents: 1},
		{name: "costly read, budget spent", reads: 4, total: 40 * time.Millisecond, leaderEstimate: spent, wantExemptions: 1},
		// 68 x 3676470ns = 249.99996ms: a read that saves just less than the wait.
		{name: "read just too cheap", reads: 1, total: 3676470 * time.Nanosecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := MustNewManager(testConfig())
			a, _ := driftedPair(t, m, tc.leaderEstimate)
			m.ObserveReadCost(tc.reads, tc.total)
			adv := report(t, m, a, 200, time.Second)
			if adv.Wait != tc.wantWait {
				t.Errorf("Wait = %v, want %v", adv.Wait, tc.wantWait)
			}
			if adv.Priority != PageHigh {
				t.Errorf("leader priority = %v, want high whatever the wait", adv.Priority)
			}
			st := m.Stats()
			if st.ThrottleEvents != tc.wantEvents || st.ThrottleTime != tc.wantWait {
				t.Errorf("ThrottleEvents = %d, ThrottleTime = %v; want %d, %v",
					st.ThrottleEvents, st.ThrottleTime, tc.wantEvents, tc.wantWait)
			}
			if st.FairnessExemptions != tc.wantExemptions {
				t.Errorf("FairnessExemptions = %d, want %d", st.FairnessExemptions, tc.wantExemptions)
			}
		})
	}
}

// TestReadCostFollowsTheStore: the estimate is a windowed mean, so a store
// that turns slow is believed within one window of reads.
func TestReadCostFollowsTheStore(t *testing.T) {
	m := MustNewManager(testConfig())
	a, _ := driftedPair(t, m, 0)
	m.ObserveReadCost(100000, 100000*300*time.Nanosecond) // a long cheap history
	for i := 0; i < readCostWindow; i++ {
		m.ObserveReadCost(1, 10*time.Millisecond)
	}
	if adv := report(t, m, a, 200, time.Second); adv.Wait != 250*time.Millisecond {
		t.Errorf("Wait = %v after %d reads at 10ms, want the 250ms throttle", adv.Wait, readCostWindow)
	}
}

// throttledLeader returns a manager whose scan a has just been advised to
// wait 250ms for trailer b, 100 pages behind it.
func throttledLeader(t *testing.T) (m *Manager, a, b ScanID) {
	t.Helper()
	m = MustNewManager(testConfig())
	a, b = driftedPair(t, m, 0)
	if adv := report(t, m, a, 200, time.Second); adv.Wait != 250*time.Millisecond {
		t.Fatalf("leader advised %v, want 250ms", adv.Wait)
	}
	return m, a, b
}

func woken(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestParkedLeaderIsWoken walks the wake-up's three sources and its one
// non-source: a trailer that reports but is still too far behind.
func TestParkedLeaderIsWoken(t *testing.T) {
	t.Run("trailer within threshold", func(t *testing.T) {
		m, a, b := throttledLeader(t)
		wake := m.ParkThrottled(a)
		if woken(wake) {
			t.Fatal("woken with the trailer 100 pages behind")
		}
		report(t, m, b, 150, 1100*time.Millisecond) // 50 behind: still past 32
		if woken(wake) {
			t.Fatal("woken with the trailer 50 pages behind")
		}
		report(t, m, b, 170, 1200*time.Millisecond) // 30 behind
		if !woken(wake) {
			t.Fatal("not woken with the trailer back within the threshold")
		}
	})
	t.Run("trailer ends", func(t *testing.T) {
		m, a, b := throttledLeader(t)
		wake := m.ParkThrottled(a)
		if err := m.EndScan(b, 1100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if !woken(wake) {
			t.Fatal("not woken when the trailer ended")
		}
	})
	t.Run("trailer detaches", func(t *testing.T) {
		m, a, b := throttledLeader(t)
		wake := m.ParkThrottled(a)
		if err := m.DetachScan(b, 1100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if !woken(wake) {
			t.Fatal("not woken when the trailer detached")
		}
	})
	t.Run("caught up before parking", func(t *testing.T) {
		m, a, b := throttledLeader(t)
		report(t, m, b, 180, 1100*time.Millisecond)
		if !woken(m.ParkThrottled(a)) {
			t.Fatal("channel not ready although the wait was pointless on arrival")
		}
	})
	t.Run("stale signal", func(t *testing.T) {
		m, a, b := throttledLeader(t)
		m.ParkThrottled(a)
		report(t, m, b, 180, 1100*time.Millisecond) // signals; the leader leaves by its deadline instead
		if err := m.SettleThrottle(a, 250*time.Millisecond, 250*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		report(t, m, a, 260, 1300*time.Millisecond) // 80 ahead again
		if woken(m.ParkThrottled(a)) {
			t.Fatal("second wait woken by the first wait's signal")
		}
	})
	t.Run("unknown scan", func(t *testing.T) {
		m, _, _ := throttledLeader(t)
		if ch := m.ParkThrottled(99); ch != nil {
			t.Fatal("unknown scan got a channel")
		}
		if err := m.SettleThrottle(99, time.Second, time.Second); err == nil {
			t.Fatal("SettleThrottle accepted an unknown scan")
		}
	})
}

// TestSettleThrottleChargesTimeWaited: the advice is charged when given and
// the difference to the time really waited is settled afterwards, in the
// scan's fairness budget and in the totals alike.
func TestSettleThrottleChargesTimeWaited(t *testing.T) {
	m, a, _ := throttledLeader(t)
	m.ParkThrottled(a)
	if err := m.SettleThrottle(a, 250*time.Millisecond, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.ThrottleEvents != 1 || st.ThrottleTime != 10*time.Millisecond {
		t.Errorf("after settling: %d events, %v; want 1 event of 10ms", st.ThrottleEvents, st.ThrottleTime)
	}
	for _, sc := range m.Snapshot().Scans {
		if want := map[ScanID]time.Duration{a: 10 * time.Millisecond}[sc.ID]; sc.Throttled != want {
			t.Errorf("scan %d budget charged %v, want %v", sc.ID, sc.Throttled, want)
		}
	}
	// A settled scan is no longer parked: nothing signals it.
	if err := m.EndScan(a, 2*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestWakeNeverBlocksSignaller: a leader that armed its wake-up but is not
// receiving — it has yet to reach its select, or left through its deadline —
// costs the trailer nothing, report after report.
func TestWakeNeverBlocksSignaller(t *testing.T) {
	m, a, b := throttledLeader(t)
	wake := m.ParkThrottled(a)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i, pages := range []int{170, 180, 190} { // each within the threshold: each signals
			if _, err := m.ReportProgress(b, pages, time.Duration(1100+100*i)*time.Millisecond); err != nil {
				t.Error(err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("trailer's progress report blocked on a leader that is not receiving")
	}
	wg.Wait()
	if !woken(wake) || woken(wake) {
		t.Fatal("want exactly one pending wake-up after three signals")
	}
}
