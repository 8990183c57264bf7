// Linearizability-style harness for the optimistic read path.
//
// The optimistic protocol's whole claim is a one-liner: a validated
// lock-free read returns a snapshot that WAS the valid content of that page
// at some instant between the call's start and its end. Two tests attack
// that claim from different angles:
//
//   - TestOptimisticTornReads is the memory-level detector: every fill
//     publishes a sentinel pattern derived from (pid, generation), readers
//     hammer ReadOptimistic while evictions recycle frames underneath them,
//     and any byte inconsistent with the header means a torn read — two
//     occupants mixed in one observation.
//
//   - TestOptimisticLinearizability is the history-level checker: a global
//     atomic logical clock stamps each version's publication (before Fill)
//     and retirement (under the shard lock, via the evictHook seam, after
//     the frame is recycled), and each read's start and end. A read of
//     version k is linearizable iff its window overlaps k's lifetime:
//     pub(k) <= readEnd and ret(k) >= readStart. A validated read of a
//     version that was retired wholly before the read began, or published
//     wholly after it ended, is a linearizability violation even if the
//     bytes happen to be intact.
//
// Both run under -race in `make check`'s race pass (including -cpu 2,8),
// where the atomics-only fast path must also be free of data races.
package buffer

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scanshare/internal/disk"
)

// sentinelLen is the payload size for the harness pages: big enough that a
// torn read (a mix of two occupants) cannot hide in the header.
const sentinelLen = 128

// sentinelPage builds the generation-k payload for pid: an 8+8 byte header
// naming (pid, k) and a body whose every byte is a function of both. Any
// observation whose body disagrees with its own header is torn.
func sentinelPage(pid disk.PageID, k int64) []byte {
	data := make([]byte, sentinelLen)
	binary.LittleEndian.PutUint64(data[0:8], uint64(pid))
	binary.LittleEndian.PutUint64(data[8:16], uint64(k))
	fill := byte(int64(pid)*31 + k*17 + 7)
	for i := 16; i < len(data); i++ {
		data[i] = fill
	}
	return data
}

// checkSentinel decodes an observed payload and verifies internal
// consistency, returning the generation it claims to be.
func checkSentinel(pid disk.PageID, data []byte) (int64, error) {
	if len(data) != sentinelLen {
		return 0, fmt.Errorf("payload length %d, want %d", len(data), sentinelLen)
	}
	gotPid := disk.PageID(binary.LittleEndian.Uint64(data[0:8]))
	k := int64(binary.LittleEndian.Uint64(data[8:16]))
	if gotPid != pid {
		return k, fmt.Errorf("header pid %d, asked for %d", gotPid, pid)
	}
	want := byte(int64(pid)*31 + k*17 + 7)
	for i := 16; i < len(data); i++ {
		if data[i] != want {
			return k, fmt.Errorf("generation %d: byte %d is %#x, want %#x (torn read)", k, i, data[i], want)
		}
	}
	return k, nil
}

// TestOptimisticTornReads: N reader goroutines hammer the lock-free path
// while writers churn pages through a pool far smaller than the page
// universe, so frames recycle constantly. Sentinel payloads make any
// mixed-version observation self-evident.
func TestOptimisticTornReads(t *testing.T) {
	const (
		capacity  = 8
		pageRange = 64
		readers   = 4
		writers   = 2
	)
	dur := 400 * time.Millisecond
	if testing.Short() {
		dur = 50 * time.Millisecond
	}
	pool := MustNewPoolOpts(PoolOptions{Capacity: capacity, Translation: TranslationArray})

	var gens [pageRange]atomic.Int64 // per-page fill generation
	var stop atomic.Bool
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				pid := disk.PageID(rng.Intn(pageRange))
				st, data := pool.Acquire(pid)
				switch st {
				case Hit:
					if _, err := checkSentinel(pid, data); err != nil {
						t.Errorf("locked hit on page %d: %v", pid, err)
						stop.Store(true)
					}
					pool.Release(pid, Priority(rng.Intn(NumPriorities)))
				case Miss:
					k := gens[pid].Add(1)
					if err := pool.Fill(pid, sentinelPage(pid, k)); err != nil {
						t.Errorf("Fill(%d): %v", pid, err)
						stop.Store(true)
						return
					}
					pool.Release(pid, Priority(rng.Intn(NumPriorities)))
				default: // Busy, AllPinned: another writer owns the frame
					runtime.Gosched()
				}
			}
		}(int64(w) + 1)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				pid := disk.PageID(rng.Intn(pageRange))
				data, ok := pool.ReadOptimistic(pid)
				if !ok {
					continue
				}
				if _, err := checkSentinel(pid, data); err != nil {
					t.Errorf("optimistic read of page %d: %v", pid, err)
					stop.Store(true)
					return
				}
			}
		}(int64(r) + 100)
	}

	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	pool.CheckInvariants()

	st := pool.Stats()
	if st.OptimisticHits == 0 {
		t.Fatal("the detector never exercised the optimistic path")
	}
	if st.Evictions == 0 {
		t.Fatal("the detector never recycled a frame; nothing was at risk")
	}
	t.Logf("torn-read detector: %d optimistic hits, %d retries, %d fallbacks, %d evictions",
		st.OptimisticHits, st.OptimisticRetries, st.OptimisticFallbacks, st.Evictions)
}

// linVersion is one (pid, generation) lifetime in the linearizability
// history: pub is a clock stamp taken strictly before the version became
// readable, ret one taken strictly after it stopped being readable (0 while
// still live).
type linVersion struct {
	pub, ret int64
}

// linHistory is the shared lifetime ledger. Writers record publications,
// the evictHook records retirements (it runs under the shard mutex, so the
// lock order is shard.mu -> linHistory.mu; readers take only linHistory.mu).
type linHistory struct {
	clock atomic.Int64
	mu    sync.Mutex
	vers  map[[2]int64]*linVersion // {pid, k} -> lifetime
	cur   map[int64]int64          // pid -> live generation
}

func newLinHistory() *linHistory {
	return &linHistory{vers: make(map[[2]int64]*linVersion), cur: make(map[int64]int64)}
}

// published records that generation k of pid is about to be filled; the
// returned stamp precedes the instant the version became readable.
func (h *linHistory) published(pid disk.PageID, k int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.vers[[2]int64{int64(pid), k}] = &linVersion{pub: h.clock.Add(1)}
	h.cur[int64(pid)] = k
}

// retired records that pid's live generation just became unreachable (the
// evict hook runs after the frame's version went odd and the entry was
// unlinked, so the stamp follows the instant optimistic validation started
// failing).
func (h *linHistory) retired(pid disk.PageID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	k, ok := h.cur[int64(pid)]
	if !ok {
		return // aborted before fill: no published version to retire
	}
	delete(h.cur, int64(pid))
	if v := h.vers[[2]int64{int64(pid), k}]; v != nil {
		v.ret = h.clock.Add(1)
	}
}

// window looks up generation k of pid and returns its recorded lifetime;
// ret is 0 while the version is still live.
func (h *linHistory) window(pid disk.PageID, k int64) (pub, ret int64, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	v, found := h.vers[[2]int64{int64(pid), k}]
	if !found {
		return 0, 0, false
	}
	return v.pub, v.ret, true
}

// TestOptimisticLinearizability checks every validated optimistic read
// against the version-lifetime history: the read's [start, end] window must
// overlap the observed version's [pub, ret] lifetime. Payload integrity is
// checked too, so this subsumes the torn-read property while additionally
// rejecting stale (already-retired) and phantom (not-yet-published)
// observations.
func TestOptimisticLinearizability(t *testing.T) {
	const (
		capacity  = 8
		pageRange = 48
		readers   = 4
		writers   = 2
	)
	dur := 400 * time.Millisecond
	if testing.Short() {
		dur = 50 * time.Millisecond
	}
	pool := MustNewPoolOpts(PoolOptions{Capacity: capacity, Translation: TranslationArray})
	hist := newLinHistory()
	// The evict hook runs under the shard mutex after the victim is fully
	// unlinked and recycled; it must be installed before any concurrency.
	for _, s := range pool.shards {
		s.evictHook = hist.retired
	}

	var gens [pageRange]atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	var checked atomic.Int64

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				pid := disk.PageID(rng.Intn(pageRange))
				st, data := pool.Acquire(pid)
				switch st {
				case Hit:
					if _, err := checkSentinel(pid, data); err != nil {
						t.Errorf("locked hit on page %d: %v", pid, err)
						stop.Store(true)
					}
					pool.Release(pid, Priority(rng.Intn(NumPriorities)))
				case Miss:
					k := gens[pid].Add(1)
					// Publication stamp strictly precedes readability:
					// the version cannot validate before Fill's content
					// store, which happens after this call returns.
					hist.published(pid, k)
					if err := pool.Fill(pid, sentinelPage(pid, k)); err != nil {
						t.Errorf("Fill(%d): %v", pid, err)
						stop.Store(true)
						return
					}
					pool.Release(pid, Priority(rng.Intn(NumPriorities)))
				default:
					runtime.Gosched()
				}
			}
		}(int64(w) + 1)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				pid := disk.PageID(rng.Intn(pageRange))
				c1 := hist.clock.Add(1)
				data, ok := pool.ReadOptimistic(pid)
				c2 := hist.clock.Add(1)
				if !ok {
					continue
				}
				k, err := checkSentinel(pid, data)
				if err != nil {
					t.Errorf("optimistic read of page %d: %v", pid, err)
					stop.Store(true)
					return
				}
				pub, ret, found := hist.window(pid, k)
				if !found {
					t.Errorf("page %d: observed generation %d was never published", pid, k)
					stop.Store(true)
					return
				}
				if pub > c2 {
					t.Errorf("page %d gen %d: published at %d, after the read ended at %d (phantom)",
						pid, k, pub, c2)
					stop.Store(true)
					return
				}
				if ret != 0 && ret < c1 {
					t.Errorf("page %d gen %d: retired at %d, before the read began at %d (stale)",
						pid, k, ret, c1)
					stop.Store(true)
					return
				}
				checked.Add(1)
			}
		}(int64(r) + 100)
	}

	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	pool.CheckInvariants()

	st := pool.Stats()
	if checked.Load() == 0 {
		t.Fatal("no optimistic read was ever checked against the history")
	}
	if st.Evictions == 0 {
		t.Fatal("no version was ever retired; the history was never at risk")
	}
	t.Logf("linearizability: %d reads checked (%d optimistic hits, %d retries, %d fallbacks), %d retirements",
		checked.Load(), st.OptimisticHits, st.OptimisticRetries, st.OptimisticFallbacks, st.Evictions)
}
