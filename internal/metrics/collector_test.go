package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCollectorConcurrent hammers every counter from many goroutines and
// checks the totals balance; run with -race to verify the atomics.
func TestCollectorConcurrent(t *testing.T) {
	var c Collector
	const (
		workers = 8
		rounds  = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c.Add(ScansStarted, 1)
				c.PageHit()
				c.PageMiss()
				c.Add(BusyRetries, 1)
				c.Throttled(time.Millisecond)
				c.Add(PrefetchEnqueued, 1)
				c.Add(PrefetchDropped, 1)
				c.Add(PrefetchFilled, 1)
				c.Add(PrefetchFailed, 1)
				c.Add(ReadRetries, 1)
				c.Add(ReadTimeouts, 1)
				c.Add(PagesFailed, 1)
				c.Add(ScanDetaches, 1)
				c.Add(ScanRejoins, 1)
				c.ScanEnded(i%2 == 0)
				_ = c.Snapshot() // readers interleave with writers
			}
		}()
	}
	wg.Wait()

	s := c.Snapshot()
	n := int64(workers * rounds)
	if s.ScansStarted != n || s.ScansEnded != n || s.ScansStopped != n/2 {
		t.Errorf("scan counters: %+v", s)
	}
	if s.PagesRead != 2*n || s.Hits != n || s.Misses != n || s.BusyRetries != n {
		t.Errorf("page counters: %+v", s)
	}
	if s.ThrottleEvents != n || s.ThrottleWait != time.Duration(n)*time.Millisecond {
		t.Errorf("throttle counters: %+v", s)
	}
	if s.PrefetchEnqueued != n || s.PrefetchDropped != n || s.PrefetchFilled != n {
		t.Errorf("prefetch counters: %+v", s)
	}
	if s.PrefetchFailed != n || s.ReadRetries != n || s.ReadTimeouts != n ||
		s.PagesFailed != n || s.ScanDetaches != n || s.ScanRejoins != n {
		t.Errorf("failure counters: %+v", s)
	}
	if got := s.HitRatio(); got != 0.5 {
		t.Errorf("hit ratio %g, want 0.5", got)
	}
	if (CollectorStats{}).HitRatio() != 0 {
		t.Errorf("zero snapshot hit ratio non-zero")
	}
	if s.String() == "" {
		t.Errorf("empty String rendering")
	}
}

// TestCollectorStringFailureSuffix checks the log line stays in its healthy
// shape until a failure counter goes non-zero, so dashboards that grep the
// prefix keep working and failures are impossible to miss when present.
func TestCollectorStringFailureSuffix(t *testing.T) {
	var c Collector
	c.PageHit()
	if s := c.Snapshot().String(); strings.Contains(s, "failures:") {
		t.Errorf("healthy snapshot renders failure suffix: %q", s)
	}
	c.Add(ReadTimeouts, 1)
	c.Add(ReadRetries, 1)
	out := c.Snapshot().String()
	if !strings.Contains(out, "failures: 1 retries (1 timeouts)") {
		t.Errorf("failure suffix missing or wrong: %q", out)
	}

	// Each failure counter must switch the suffix on by itself.
	for _, k := range []Counter{PrefetchFailed, ReadRetries, ReadTimeouts, PagesFailed, ScanDetaches} {
		var c Collector
		c.Add(k, 1)
		if s := c.Snapshot().String(); !strings.Contains(s, "failures:") {
			t.Errorf("%s alone does not arm the failure suffix: %q", CollectorCounters[k].Name, s)
		}
	}
}

// TestCollectorFailureCountersOverflow drives a failure counter across the
// int64 ceiling. The counters are monotone in normal operation; this pins the
// two's-complement wrap as the defined (if absurd) behavior and checks that a
// wrapped counter neither corrupts its neighbors nor panics the renderer.
func TestCollectorFailureCountersOverflow(t *testing.T) {
	var c Collector
	c.counters[ReadRetries].Store(math.MaxInt64 - 1)
	c.Add(ReadRetries, 1)
	if got := c.Snapshot().ReadRetries; got != math.MaxInt64 {
		t.Fatalf("ReadRetries = %d, want MaxInt64", got)
	}
	c.Add(ReadTimeouts, 1) // neighbor written between the saturating and wrapping add
	c.Add(ReadRetries, 1)  // wraps
	s := c.Snapshot()
	if s.ReadRetries != math.MinInt64 {
		t.Errorf("ReadRetries after wrap = %d, want MinInt64", s.ReadRetries)
	}
	if s.ReadTimeouts != 1 {
		t.Errorf("neighbor ReadTimeouts = %d, want 1 (corrupted by wrap?)", s.ReadTimeouts)
	}
	if out := s.String(); !strings.Contains(out, "failures:") {
		// MinInt64 + 1 timeout is non-zero, so the suffix must still render.
		t.Errorf("wrapped snapshot lost its failure suffix: %q", out)
	}

	// Concurrent increments across the boundary still land exactly.
	var c2 Collector
	const workers, each = 8, 1000
	c2.counters[PagesFailed].Store(math.MaxInt64 - workers*each/2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c2.Add(PagesFailed, 1)
			}
		}()
	}
	wg.Wait()
	base := int64(math.MaxInt64 - workers*each/2)
	want := base + int64(workers*each) // wraps, deterministically
	if got := c2.Snapshot().PagesFailed; got != want {
		t.Errorf("PagesFailed = %d, want %d after %d increments across the boundary",
			got, want, workers*each)
	}
}

// driveCollector applies a fixed op script — every counter of
// CollectorCounters by a distinct amount, the compound recorders and all
// three histograms — so two drives of a fresh (or Reset) collector must
// yield byte-identical snapshots, and a Reset that forgets any counter shows.
func driveCollector(c *Collector) {
	for k := range CollectorCounters {
		if CollectorCounters[k].Kind == KindMax {
			c.SetTraceDropped(int64(k) + 1)
		} else {
			c.Add(Counter(k), int64(k)+1)
		}
	}
	for i := 0; i < 10; i++ {
		c.PageHit()
		c.PageMiss()
		c.PageReadTimed(time.Duration(500+i*100) * time.Microsecond)
	}
	c.ScanEnded(false)
	c.ScanEnded(true)
	c.Throttled(3 * time.Millisecond)
	c.Throttled(7 * time.Millisecond)
	c.PrefetchDelayed(200 * time.Microsecond)
}

// TestCollectorReset proves Reset returns the collector to a zero state:
// two identical runs, with a Reset between them, report identical
// snapshots — counters and histogram distributions both.
func TestCollectorReset(t *testing.T) {
	c := new(Collector)
	driveCollector(c)
	first := c.Snapshot()
	for k := range CollectorCounters {
		if *CollectorCounters[k].At(&first) == 0 {
			t.Fatalf("script left %s at zero; the test cannot see a Reset that forgets it", CollectorCounters[k].Name)
		}
	}

	c.Reset()
	if got := c.Snapshot(); got != (CollectorStats{}) {
		t.Fatalf("snapshot after Reset not zero: %+v", got)
	}

	driveCollector(c)
	second := c.Snapshot()
	if first != second {
		t.Errorf("identical runs differ after Reset:\n first: %+v\nsecond: %+v", first, second)
	}

	// Reset on a nil collector must be a no-op, like Snapshot.
	var nilC *Collector
	nilC.Reset()
}
