package realtime

import (
	"context"
	"testing"

	"scanshare/internal/buffer"
	"scanshare/internal/core"
	"scanshare/internal/disk"
	"scanshare/internal/heap/heaptest"
)

// TestRunnerScanAllocationsFlat pins the pull path's per-page allocation
// ceiling at zero: a scan with read coalescing and two prefetch workers
// allocates no more over a 1 024-page table than over a 64-page one. The
// pool's frames come from its arena, a flight nobody joined is recycled,
// and a prefetch request names its extent by index range, so what a run
// allocates is its fixed setup (goroutines, results, registrations). A
// coalesced wait still makes its flight's done channel, so the bound leaves
// room for a few of those.
func TestRunnerScanAllocationsFlat(t *testing.T) {
	if heaptest.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const poolPages = 16
	run := func(tablePages int) (allocs float64, st ScanResult) {
		pages := make([][]byte, tablePages)
		for i := range pages {
			pages[i] = []byte{byte(i), byte(i >> 8)}
		}
		store := StoreFunc(func(pid disk.PageID) ([]byte, error) { return pages[pid], nil })
		r, err := NewRunner(Config{
			Pool:            buffer.MustNewPool(poolPages),
			Manager:         core.MustNewManager(testManagerConfig(poolPages)),
			Store:           store,
			PrefetchWorkers: 2,
			CoalesceReads:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		specs := []ScanSpec{{
			Table:      1,
			TablePages: tablePages,
			PageID:     func(pageNo int) disk.PageID { return disk.PageID(pageNo) },
		}}
		allocs = testing.AllocsPerRun(5, func() {
			res, err := r.Run(context.Background(), specs)
			if err != nil {
				t.Fatal(err)
			}
			st = res[0]
		})
		return allocs, st
	}
	small, _ := run(64)
	large, res := run(1024)
	if res.PagesRead != 1024 {
		t.Fatalf("scan read %d pages, want 1024", res.PagesRead)
	}
	if large-small >= 8 {
		t.Errorf("a 1024-page scan allocates %v objects, a 64-page one %v: the page path allocates (last run: %d coalesced waits, %d busy retries)",
			large, small, res.CoalescedReads, res.BusyRetries)
	}
}
