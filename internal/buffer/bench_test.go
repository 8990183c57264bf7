package buffer

import (
	"fmt"
	"sync/atomic"
	"testing"

	"scanshare/internal/disk"
)

// BenchmarkPoolAcquireRelease measures the acquire/release hot path under
// goroutine contention for several stripe counts. The working set fits in the
// pool (no evictions), so after warmup the benchmark is a pure lock-and-map
// microbenchmark: with one shard every goroutine serializes on a single
// mutex; with more, concurrent acquires mostly land on different stripes.
// Run with -cpu 1,4,8 (make bench-pool) to see the scaling surface —
// single-CPU numbers mostly show the striping overhead, multi-CPU numbers the
// contention relief.
func BenchmarkPoolAcquireRelease(b *testing.B) {
	const (
		capacity   = 4096
		workingSet = 2048
	)
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			pool := MustNewPoolShards(capacity, shards)
			warmPool(b, pool, workingSet)
			var nextGoroutine atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Stagger each goroutine's walk so they collide on pages
				// (and shards) at realistic, varying offsets.
				i := int(nextGoroutine.Add(1)) * 7919
				for pb.Next() {
					pid := disk.PageID(i % workingSet)
					i++
					st, _ := pool.Acquire(pid)
					switch st {
					case Hit:
						_ = pool.Release(pid, PriorityNormal)
					case Miss:
						_ = pool.Fill(pid, nil)
						_ = pool.Release(pid, PriorityNormal)
					}
				}
			})
			b.StopTimer()
			pool.CheckInvariants()
		})
	}
}

// warmPool fills pages 0..workingSet-1 and leaves them unpinned at normal
// priority, so a benchmark's steady state is all hits.
func warmPool(b *testing.B, pool *Pool, workingSet disk.PageID) {
	b.Helper()
	for pid := disk.PageID(0); pid < workingSet; pid++ {
		if st, _ := pool.Acquire(pid); st != Miss {
			b.Fatalf("warmup acquire(%d) = %v", pid, st)
		}
		if err := pool.Fill(pid, []byte{byte(pid)}); err != nil {
			b.Fatal(err)
		}
		if err := pool.Release(pid, PriorityNormal); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolAcquireHitParallel is the translation A/B on the read-mostly
// hit path: every goroutine runs the runner's fetch discipline — try
// ReadOptimistic, fall back to Acquire/Release — against a fully warm pool,
// so every operation is a hit and the two translations differ only in how
// the hit is served. Map translation declines the optimistic call in one
// branch and takes the shard mutex both ways; array translation serves the
// hit with three atomic loads and a validation load, no mutex, no pin
// bookkeeping. Run with -cpu 1,4,8 (make bench-pool): the single-CPU
// numbers bound the fast path's raw overhead, the multi-CPU numbers show
// the mutex convoy the optimistic path sidesteps.
func BenchmarkPoolAcquireHitParallel(b *testing.B) {
	const (
		capacity   = 4096
		workingSet = 2048
	)
	for _, translation := range Translations() {
		for _, shards := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/shards=%d", translation, shards), func(b *testing.B) {
				pool := MustNewPoolOpts(PoolOptions{
					Capacity: capacity, Shards: shards, Translation: translation,
				})
				warmPool(b, pool, workingSet)
				var nextGoroutine atomic.Int64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := int(nextGoroutine.Add(1)) * 7919
					for pb.Next() {
						pid := disk.PageID(i % workingSet)
						i++
						if _, ok := pool.ReadOptimistic(pid); ok {
							continue
						}
						if st, _ := pool.Acquire(pid); st == Hit {
							_ = pool.Release(pid, PriorityNormal)
						}
					}
				})
				b.StopTimer()
				pool.CheckInvariants()
				st := pool.Stats()
				if translation == TranslationArray && st.OptHits == 0 {
					b.Fatal("array benchmark never took the optimistic path")
				}
			})
		}
	}
}

// BenchmarkPoolMissFillEvict is the miss path on one goroutine: a page cycle
// four times the pool, so every acquire misses and, once the pool is full,
// evicts the least recently released page before the fill. It is the
// in-package twin of the repo benchmark's buffer.miss_fill_evict_ns probe
// (map translation) with the array translation beside it; the steady state
// allocates nothing under map translation and only the content cell under
// array translation (TestPoolPathDoesNotAllocate pins both).
func BenchmarkPoolMissFillEvict(b *testing.B) {
	const (
		capacity = 1024
		cycle    = 4 * capacity
	)
	data := make([]byte, 8192)
	for _, translation := range Translations() {
		b.Run(translation, func(b *testing.B) {
			pool := MustNewPoolOpts(PoolOptions{Capacity: capacity, Translation: translation})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pid := disk.PageID(i % cycle)
				if st, _ := pool.Acquire(pid); st != Miss {
					b.Fatalf("Acquire(%d) = %v, want miss", pid, st)
				}
				if err := pool.Fill(pid, data); err != nil {
					b.Fatal(err)
				}
				if err := pool.Release(pid, PriorityNormal); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			pool.CheckInvariants()
		})
	}
}
