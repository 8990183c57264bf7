package telemetry

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scanshare/internal/buffer"
	"scanshare/internal/core"
	"scanshare/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// goldenSources builds a fully deterministic Sources: a collector driven by
// a fixed op script, two fake pools with hand-set counters, and a
// hand-built sharing snapshot. No wall clock anywhere, so the exposition
// is byte-stable.
func goldenSources() Sources {
	col := new(metrics.Collector)
	for i := 0; i < 60; i++ {
		col.PageHit()
	}
	for i := 0; i < 40; i++ {
		col.PageMiss()
		col.PageReadTimed(2 * time.Millisecond)
	}
	col.BusyRetry()
	col.ScanStarted()
	col.ScanStarted()
	col.ScanEnded(false)
	col.Throttled(10 * time.Millisecond)
	col.Throttled(30 * time.Millisecond)
	col.PrefetchEnqueued()
	col.PrefetchEnqueued()
	col.PrefetchEnqueued()
	col.PrefetchPicked()
	col.PrefetchDelayed(500 * time.Microsecond)
	col.PrefetchFilled()
	col.ReadCoalesced()
	col.ScanDetached()
	col.ScanRejoined()

	mainStats := buffer.Stats{LogicalReads: 100, Hits: 60, Misses: 40, Evictions: 12}
	mainStats.EvictionsByPr[buffer.PriorityEvict] = 9
	mainStats.EvictionsByPr[buffer.PriorityLow] = 3
	sideStats := buffer.Stats{LogicalReads: 10, Hits: 10}

	snap := core.Snapshot{
		Scans: []core.ScanInfo{
			{ID: 1, Table: 7, Position: 120},
			{ID: 2, Table: 7, Position: 100},
			{ID: 3, Table: 9, Position: 5, Detached: true},
		},
		Groups: []core.GroupInfo{
			{Table: 7, Members: []core.ScanID{2, 1}, Trailer: 2, Leader: 1, ExtentPages: 20},
		},
	}

	return Sources{
		Collector: col,
		Pools: []PoolSource{
			{
				Name:     "", // default pool: label must render as "default"
				Capacity: 128,
				Shards: func() []buffer.Stats {
					half := mainStats
					half.LogicalReads, half.Hits, half.Misses = 50, 30, 20
					half.Evictions = 6
					half.EvictionsByPr[buffer.PriorityEvict] = 4
					half.EvictionsByPr[buffer.PriorityLow] = 2
					other := mainStats
					other.LogicalReads, other.Hits, other.Misses = 50, 30, 20
					other.Evictions = 6
					other.EvictionsByPr[buffer.PriorityEvict] = 5
					other.EvictionsByPr[buffer.PriorityLow] = 1
					return []buffer.Stats{half, other}
				},
				Occupancy: func() []int { return []int{70, 50} },
			},
			{
				Name:      "side",
				Capacity:  32,
				Policy:    buffer.PolicyPredictive,
				Shards:    func() []buffer.Stats { return []buffer.Stats{sideStats} },
				Occupancy: func() []int { return []int{10} },
			},
		},
		Sharing: func() core.Snapshot { return snap },
	}
}

// TestWriteMetricsGolden pins the whole Prometheus exposition byte-for-byte.
// Regenerate with: go test ./internal/telemetry -run Golden -update
func TestWriteMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	WriteMetrics(&buf, goldenSources())
	got := buf.Bytes()

	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("exposition differs from golden at line %d:\n  got:  %q\n  want: %q\n(run with -update after a reviewed format change)", i+1, g, w)
			}
		}
		t.Fatal("exposition differs from golden (length only)")
	}
}

// TestWriteMetricsFormat sanity-checks structural properties of the text
// format independent of the golden bytes: every sample line's metric is
// declared by HELP+TYPE lines first, and key families are present.
func TestWriteMetricsFormat(t *testing.T) {
	var buf bytes.Buffer
	WriteMetrics(&buf, goldenSources())
	declared := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) < 3 {
				t.Fatalf("malformed comment line %q", line)
			}
			declared[fields[2]] = true
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if !declared[name] && !declared[base] {
			t.Errorf("sample line %q has no preceding HELP/TYPE declaration", line)
		}
	}
	for _, want := range []string{
		"scanshare_pages_read_total",
		"scanshare_prefetch_queue_depth",
		"scanshare_page_read_latency_seconds",
		"scanshare_pool_hits_total",
		"scanshare_pool_shard_occupancy_pages",
		"scanshare_group_max_gap_pages",
	} {
		if !declared[want] {
			t.Errorf("missing metric family %s", want)
		}
	}
}

// TestHandler exercises the HTTP wrapper: content type and a 200 with the
// same body WriteMetrics renders.
func TestHandler(t *testing.T) {
	src := goldenSources()
	rr := httptest.NewRecorder()
	Handler(src).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	var want bytes.Buffer
	WriteMetrics(&want, src)
	if rr.Body.String() != want.String() {
		t.Fatal("handler body differs from WriteMetrics output")
	}
}
