package buffer

import (
	"testing"

	"scanshare/internal/disk"
)

// FuzzPoolOps interprets the fuzzer's bytes as an operation sequence against
// a small sharded pool — two bits of opcode, five bits of page id per byte —
// while tracking which frames the driver holds so every call is legal. The
// policy byte selects the replacement policy in its low bits and the
// translation table in its top bit (0x80: array translation with the
// optimistic read path), and acquire opcodes with the 0x20 bit set become
// scan-source mutations (register, progress report, activity toggle,
// unregister), so the same op streams run under both policies, both
// translations, and interleaved changes to the scans the pool plans by. A settle opcode for a
// page with no read in flight doubles as an optimistic-read probe, whose
// outcome is checked against residency (map pools must always decline).
// After each input the pool must pass CheckInvariants and the cross-policy
// invariants must hold: the counter identities, capacity, pinned-page
// residency, and a priority-LRU pool never reading its scan source; the
// fuzzer's job is to find an op order that corrupts the policy order, the
// pending counter, the version protocol, or the stats.
func FuzzPoolOps(f *testing.F) {
	f.Add(uint8(1), uint8(0), []byte{0x00, 0x40, 0x80})
	f.Add(uint8(4), uint8(1), []byte{0x00, 0x01, 0x02, 0x03, 0x41, 0x82, 0xc3, 0x00})
	f.Add(uint8(7), uint8(0), []byte{0x1f, 0x5f, 0x9f, 0xdf, 0x1f, 0x5f})
	f.Add(uint8(2), uint8(1), []byte{0x20, 0x28, 0x00, 0x01, 0x21, 0x02, 0x42, 0x82, 0x2c, 0x03, 0x23})
	f.Add(uint8(1), uint8(0x80), []byte{0x00, 0x40, 0x41, 0x80, 0x01, 0x41, 0x41})
	f.Add(uint8(3), uint8(0x81), []byte{0x00, 0x40, 0x80, 0x01, 0x41, 0x81, 0x02, 0x62, 0x40, 0x41})
	f.Fuzz(func(t *testing.T, shardByte, policyByte uint8, ops []byte) {
		shards := int(shardByte%8) + 1
		capacity := shards + 5
		policies := Policies()
		policy := policies[int(policyByte&0x7f)%len(policies)]
		translation := TranslationMap
		if policyByte&0x80 != 0 {
			translation = TranslationArray
		}
		pool := MustNewPoolOpts(PoolOptions{
			Capacity: capacity, Shards: shards, Policy: policy, Translation: translation,
		})

		// Footprint variants for register events; the last is invalid and
		// must be ignored.
		footprints := [4]ScanFootprint{
			{Start: 0, End: 32, Origin: 0},
			{Start: 4, End: 20, Origin: 10},
			{Start: 0, End: 32, Origin: 31},
			{Start: 5, End: 5, Origin: 5},
		}

		src := newFakeScans(pool)
		pins := map[disk.PageID]int{}
		pending := map[disk.PageID]bool{}
		regs := map[int64]bool{}
		for _, b := range ops {
			pid := disk.PageID(b & 0x1f)
			switch b >> 6 {
			case 0:
				if b&0x20 != 0 {
					// Scan-source mutation: bits 0-1 pick the kind,
					// bit 2 the scan id, bits 3-4 the parameter variant.
					id := int64(b >> 2 & 1)
					v := int(b >> 3 & 3)
					switch b & 3 {
					case 0:
						src.register(id, footprints[v], float64(v))
						regs[id] = true
					case 1:
						src.update(id, v*8-4, float64(v)-1)
					case 2:
						src.setActive(id, v&1 == 0)
					default:
						src.unregister(id)
						delete(regs, id)
					}
					continue
				}
				st, _ := pool.Acquire(pid)
				switch st {
				case Hit:
					pins[pid]++
				case Miss:
					pending[pid] = true
				}
			case 1: // settle the page if we owe it a read: fill or abort
				if !pending[pid] {
					// Nothing to settle: probe the optimistic path instead.
					// Single-threaded, the outcome is fully determined: a
					// hit iff the pool is array-translation and the page is
					// resident and valid, with the fill payload intact.
					data, ok := pool.ReadOptimistic(pid)
					want := translation == TranslationArray && pool.Contains(pid)
					if ok != want {
						t.Fatalf("ReadOptimistic(%d) = %v, want %v (translation %s)", pid, ok, want, translation)
					}
					if ok && (len(data) != 1 || data[0] != byte(pid)) {
						t.Fatalf("ReadOptimistic(%d) returned %v", pid, data)
					}
					continue
				}
				delete(pending, pid)
				if b&0x20 != 0 {
					if err := pool.Abort(pid); err != nil {
						t.Fatalf("Abort(%d): %v", pid, err)
					}
					continue
				}
				if err := pool.Fill(pid, []byte{byte(pid)}); err != nil {
					t.Fatalf("Fill(%d): %v", pid, err)
				}
				pins[pid]++
			case 2: // release one pin at a priority from the low opcode bits
				if pins[pid] == 0 {
					continue
				}
				prio := Priority(int(b>>5) % NumPriorities)
				if err := pool.Release(pid, prio); err != nil {
					t.Fatalf("Release(%d, %v): %v", pid, prio, err)
				}
				if pins[pid]--; pins[pid] == 0 {
					delete(pins, pid)
				}
			case 3: // priority-retaining release
				if pins[pid] == 0 {
					continue
				}
				if err := pool.ReleaseRetain(pid); err != nil {
					t.Fatalf("ReleaseRetain(%d): %v", pid, err)
				}
				if pins[pid]--; pins[pid] == 0 {
					delete(pins, pid)
				}
			}
		}

		pool.CheckInvariants()
		st := pool.Stats()
		if st.PagesDelivered() != st.Hits+st.Misses-st.Aborts {
			t.Fatalf("delivered identity broken: %+v", st)
		}
		if want := st.Fills + st.Aborts + int64(len(pending)); st.Misses != want {
			t.Fatalf("misses %d != fills %d + aborts %d + %d pending", st.Misses, st.Fills, st.Aborts, len(pending))
		}
		if pool.Len() > pool.Capacity() {
			t.Fatalf("len %d exceeds capacity %d", pool.Len(), pool.Capacity())
		}
		// Pinned pages can never be evicted, whatever the policy chooses.
		for pid, n := range pins {
			if n > 0 && !pool.Contains(pid) {
				t.Fatalf("pinned page %d (pins=%d) not resident", pid, n)
			}
		}
		switch want := len(regs); {
		case pool.Policy() != PolicyPredictive && src.reads.Load() != 0:
			t.Fatalf("policy %s read its scan source %d times, want 0", policy, src.reads.Load())
		case src.len() != want:
			t.Fatalf("registered scans %d, want %d", src.len(), want)
		}
	})
}

// FuzzTranslation attacks the chunked copy-on-write translation directory
// and its range discipline directly, then replays the same page-id stream
// through a tiny array-translation pool. Each 3-byte group decodes to a
// page id spanning the interesting ranges — within the first chunk, across
// chunk boundaries, just below and at the hard cap, and negative — and
// alternates ensure/entry calls. Invariants after every op: coverage is a
// whole number of chunks and never exceeds the cap; entry() is non-nil
// exactly for in-range ids below coverage; ensure() rejects exactly the
// out-of-range ids; growth never relocates an existing entry (a sentinel
// stored before growth must load back identical after). The pool replay
// then checks that any id the fuzzer invents — overflow ids included —
// survives a full miss/fill/read/release cycle with the invariant checker
// green.
func FuzzTranslation(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x81, 0x10, 0x00, 0x42, 0xff, 0xff})
	f.Add([]byte{0xc0, 0x00, 0x01, 0x03, 0x00, 0x02, 0x80, 0x00, 0x03})
	f.Add([]byte{0x41, 0x0f, 0xff, 0x01, 0x10, 0x00, 0xc1, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Decode one op per 3-byte group: 2 bits opcode, then a 22-bit value
		// stretched across the ranges worth probing.
		type op struct {
			ensure bool
			pid    disk.PageID
		}
		var seq []op
		for i := 0; i+2 < len(ops); i += 3 {
			v := int(ops[i]&0x3f)<<16 | int(ops[i+1])<<8 | int(ops[i+2])
			pid := disk.PageID(v)
			switch ops[i] >> 6 & 3 {
			case 1: // shift near the cap boundary
				pid = MaxTranslationPages - 2 + disk.PageID(v%5)
			case 2: // negative
				pid = -1 - disk.PageID(v)
			case 3: // cross early chunk boundaries
				pid = disk.PageID(v % (3 * xlateChunkPages))
			}
			seq = append(seq, op{ensure: ops[i]&0x20 != 0, pid: pid})
		}

		tr := newTranslation(0)
		sentinels := map[disk.PageID]*frame{}
		for _, o := range seq {
			if o.ensure {
				e := tr.ensure(o.pid)
				switch {
				case !tr.inRange(o.pid):
					if e != nil {
						t.Fatalf("ensure(%d) accepted an out-of-range pid", o.pid)
					}
				case e == nil:
					t.Fatalf("ensure(%d) failed for an in-range pid", o.pid)
				default:
					if sentinels[o.pid] == nil {
						f := &frame{pid: o.pid}
						sentinels[o.pid] = f
						e.Store(f)
					}
				}
			}
			covered := tr.covered()
			if covered%xlateChunkPages != 0 || covered > MaxTranslationPages {
				t.Fatalf("coverage %d is not a whole chunk count under the cap", covered)
			}
			e := tr.entry(o.pid)
			if want := tr.inRange(o.pid) && int(o.pid) < covered; (e != nil) != want {
				t.Fatalf("entry(%d) = %v with coverage %d", o.pid, e, covered)
			}
			// Chunk stability: every sentinel stored so far must still be
			// reachable, bitwise the same frame, through the grown directory.
			for pid, f := range sentinels {
				se := tr.entry(pid)
				if se == nil || se.Load() != f {
					t.Fatalf("growth lost the sentinel for page %d", pid)
				}
			}
		}

		// Pool replay: the same id stream through a real array pool.
		pool := MustNewPoolOpts(PoolOptions{Capacity: 4, Translation: TranslationArray})
		for _, o := range seq {
			st, _ := pool.Acquire(o.pid)
			switch st {
			case Miss:
				if err := pool.Fill(o.pid, []byte{byte(o.pid)}); err != nil {
					t.Fatalf("Fill(%d): %v", o.pid, err)
				}
			case Hit:
			default:
				continue // Busy/AllPinned cannot happen single-threaded with all pins released
			}
			data, ok := pool.ReadOptimistic(o.pid)
			if want := pool.xlate.inRange(o.pid); ok != want {
				t.Fatalf("ReadOptimistic(%d) = %v, want %v (resident)", o.pid, ok, want)
			}
			if ok && data[0] != byte(o.pid) {
				t.Fatalf("ReadOptimistic(%d) returned %v", o.pid, data)
			}
			if err := pool.Release(o.pid, PriorityNormal); err != nil {
				t.Fatalf("Release(%d): %v", o.pid, err)
			}
		}
		pool.CheckInvariants()
	})
}
