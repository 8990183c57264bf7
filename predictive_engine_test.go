package scanshare

import (
	"testing"
	"time"
)

// TestPredictivePoolPlansByScanPosition: in a virtual-time Run, a predictive
// pool plans its evictions by the positions its sharing manager tracks. Two
// scans of one table run with every coordination mechanism off, the second
// starting further behind than the pool holds: release-order LRU evicts
// every page before the trailer arrives and the trailer reads the whole
// table again, while the predictive victim is the page the trailer needs
// last, so the pages just ahead of the trailer stay resident. The same
// engine with the pool's source detached is the LRU control; both runs are
// deterministic.
func TestPredictivePoolPlansByScanPosition(t *testing.T) {
	run := func(source bool) *Report {
		eng := MustNew(Config{
			BufferPoolPages: 16,
			PoolPolicy:      PoolPolicyPredictive,
			Disk: DiskConfig{
				SeekTime:        time.Millisecond,
				TransferPerPage: 100 * time.Microsecond,
				PageSize:        1024,
			},
			Sharing: SharingConfig{
				PrefetchExtentPages:  4,
				DisablePlacement:     true,
				DisableThrottling:    true,
				DisablePriorityHints: true,
			},
		})
		schema := MustSchema(Field{Name: "id", Kind: KindInt64}, Field{Name: "v", Kind: KindFloat64})
		tbl, err := eng.LoadTable("t", schema, func(add func(Tuple) error) error {
			var tup Tuple
			for i := 0; i < 4000; i++ {
				if err := add(append(tup[:0], Int64(int64(i)), Float64(float64(i)))); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !source {
			eng.defPool.pool.SetScanSource(nil)
		}
		q := NewQuery(tbl)
		rep, err := eng.Run(Shared, []Job{{Query: q}, {Query: q, Start: 40 * time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("source %v: %d pages, %d reads, %d hits, makespan %v",
			source, tbl.NumPages(), rep.Disk.Reads, rep.Pool.Hits, rep.Makespan)
		return rep
	}
	lru, predictive := run(false), run(true)
	if again := run(true); again.Disk != predictive.Disk || again.Pool.Hits != predictive.Pool.Hits || again.Makespan != predictive.Makespan {
		t.Fatalf("two predictive runs differ: %+v / %+v", predictive.Disk, again.Disk)
	}
	if lru.Pool.Hits != 0 {
		t.Fatalf("the LRU control hit %d pages; the trailer must start further behind than the pool holds", lru.Pool.Hits)
	}
	if predictive.Pool.Hits == 0 || predictive.Disk.Reads >= lru.Disk.Reads {
		t.Errorf("predictive: %d hits, %d reads; LRU control: %d reads", predictive.Pool.Hits, predictive.Disk.Reads, lru.Disk.Reads)
	}
}
