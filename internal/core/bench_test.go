package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkReportProgress measures one progress report — the manager's hot
// path, taken at every prefetch extent of every scan — with 8, 64 and 512
// live scans spread over 1 and 4 tables, from one goroutine (seq) and from
// GOMAXPROCS goroutines that each report for their own share of the scans
// (parallel). Every report moves its scan one extent, so the groups are
// recomputed the way a running workload recomputes them.
func BenchmarkReportProgress(b *testing.B) {
	for _, scans := range []int{8, 64, 512} {
		for _, tables := range []int{1, 4} {
			name := fmt.Sprintf("scans=%d/tables=%d", scans, tables)
			b.Run(name+"/seq", func(b *testing.B) {
				m, ids := benchManager(b, scans, tables)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					round := i/scans + 1
					if _, err := m.ReportProgress(ids[i%scans], round*8, time.Duration(i)*time.Microsecond); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(name+"/parallel", func(b *testing.B) {
				m, ids := benchManager(b, scans, tables)
				workers := int64(runtime.GOMAXPROCS(0))
				var next, clock atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					// Worker w owns scans w, w+workers, …: each scan's
					// progress is reported by one goroutine, in order.
					w := int(next.Add(1)-1) % int(workers)
					var own []ScanID
					for k := w; k < scans; k += int(workers) {
						own = append(own, ids[k])
					}
					for i := 0; pb.Next(); i++ {
						round := i/len(own) + 1
						now := time.Duration(clock.Add(1)) * time.Microsecond
						if _, err := m.ReportProgress(own[i%len(own)], round*8, now); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

// benchManager starts scans endless scans (tables of 2^40 pages) round-robin
// over tables tables.
func benchManager(b *testing.B, scans, tables int) (*Manager, []ScanID) {
	cfg := DefaultConfig(1000)
	cfg.PrefetchExtentPages = 8
	m := MustNewManager(cfg)
	ids := make([]ScanID, scans)
	for i := range ids {
		id, _, err := m.StartScan(ScanOpts{Table: TableID(i % tables), TablePages: 1 << 40}, 0)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	return m, ids
}
