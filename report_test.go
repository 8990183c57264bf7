package scanshare_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"scanshare"
)

// TestPoolStatsEvictionBreakdown pins the per-priority eviction rendering:
// empty levels are omitted and an eviction-free pool renders "".
func TestPoolStatsEvictionBreakdown(t *testing.T) {
	var ps scanshare.PoolStats
	if got := ps.EvictionBreakdown(); got != "" {
		t.Errorf("empty breakdown = %q, want \"\"", got)
	}
	ps.Evictions = 5
	ps.EvictionsByPriority[1] = 3 // low
	ps.EvictionsByPriority[2] = 2 // normal
	if got, want := ps.EvictionBreakdown(), "low 3, normal 2"; got != want {
		t.Errorf("breakdown = %q, want %q", got, want)
	}
}

// TestPoolStatsHitRatioExcludesAborts checks that aborted misses (reads that
// delivered no page) do not dilute the hit ratio.
func TestPoolStatsHitRatioExcludesAborts(t *testing.T) {
	var ps scanshare.PoolStats
	ps.LogicalReads, ps.Hits, ps.Misses, ps.Aborts = 10, 4, 6, 2
	if got := ps.HitRatio(); got != 0.5 {
		t.Errorf("HitRatio = %v, want 0.5 (4 hits / 8 delivered)", got)
	}
	var all scanshare.PoolStats
	all.LogicalReads, all.Aborts = 3, 3
	if got := all.HitRatio(); got != 0 {
		t.Errorf("all-aborted HitRatio = %v, want 0", got)
	}
}

// TestReportSurfacesEvictionsByPriority runs a workload that overflows a tiny
// pool and checks the per-priority eviction counts reach the Report — both the
// aggregate and the per-pool entry — and appear in the Summary text. This is
// the regression test for the breakdown being collected but dropped on the
// floor by report assembly.
func TestReportSurfacesEvictionsByPriority(t *testing.T) {
	eng, tbl := newEngine(t, 8, 4000) // table is far larger than 8 pages
	q := scanshare.NewQuery(tbl)
	rep, err := eng.Run(scanshare.Shared, []scanshare.Job{
		{Query: q},
		{Query: q, Start: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pool.Evictions == 0 {
		t.Fatal("workload produced no evictions; pool too large for the test")
	}
	var sum int64
	for _, n := range rep.Pool.EvictionsByPriority {
		sum += n
	}
	if sum != rep.Pool.Evictions {
		t.Errorf("per-priority evictions sum to %d, total says %d", sum, rep.Pool.Evictions)
	}
	def := rep.Pools[""]
	var defSum int64
	for _, n := range def.EvictionsByPriority {
		defSum += n
	}
	if defSum != def.Evictions {
		t.Errorf("default pool breakdown sums to %d, total says %d", defSum, def.Evictions)
	}
	out := rep.Summary()
	if !strings.Contains(out, "evictions: ") {
		t.Errorf("Summary lacks evictions line:\n%s", out)
	}
	if !strings.Contains(out, rep.Pool.EvictionBreakdown()) {
		t.Errorf("Summary lacks breakdown %q:\n%s", rep.Pool.EvictionBreakdown(), out)
	}
}

// TestReportPoolSumsPools checks that Report.Pool is the field-wise sum of
// Report.Pools over every counter, so no counter is dropped from the total.
// The sum here is taken by reflection, independently of the report's own.
func TestReportPoolSumsPools(t *testing.T) {
	eng, err := scanshare.New(scanshare.Config{
		BufferPoolPages: 8,
		Pools:           []scanshare.PoolConfig{{Name: "side", Pages: 8, Shards: 2}},
		Disk:            scanshare.DiskConfig{PageSize: 1024},
		Sharing:         scanshare.SharingConfig{PrefetchExtentPages: 4, MinSharePages: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []scanshare.Job
	for _, pool := range []string{"", "side"} {
		tbl, err := eng.LoadTableInPool("t_"+pool, pool, demoSchema(), func(add func(scanshare.Tuple) error) error {
			for i := 0; i < 1500; i++ {
				if err := add(scanshare.Tuple{
					scanshare.Int64(int64(i)), scanshare.Float64(1), scanshare.String("x"), scanshare.Date(0),
				}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		q := scanshare.NewQuery(tbl).CountAll()
		jobs = append(jobs, scanshare.Job{Query: q}, scanshare.Job{Query: q, Start: time.Millisecond})
	}
	rep, err := eng.Run(scanshare.Shared, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pools) != 2 {
		t.Fatalf("Pools = %v", rep.Pools)
	}
	want := reflect.New(reflect.TypeOf(rep.Pool.Stats)).Elem()
	for _, p := range rep.Pools {
		if p.LogicalReads == 0 || p.Evictions == 0 {
			t.Fatalf("pool saw too little activity for the test: %+v", p)
		}
		addInts(want, reflect.ValueOf(p.Stats))
	}
	if got := rep.Pool.Stats; !reflect.DeepEqual(got, want.Interface()) {
		t.Errorf("Report.Pool = %+v\nwant the sum of Report.Pools = %+v", got, want.Interface())
	}
}

// addInts adds every int64 in v (struct fields and array elements) into sum.
func addInts(sum, v reflect.Value) {
	switch v.Kind() {
	case reflect.Int64:
		sum.SetInt(sum.Int() + v.Int())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			addInts(sum.Field(i), v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			addInts(sum.Index(i), v.Index(i))
		}
	}
}
