package realtime

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"scanshare/internal/buffer"
	"scanshare/internal/core"
	"scanshare/internal/disk"
)

// specScans is the scan source the engine gives a predictive pool, built
// from run specs: the manager's scans, anchored in device page space at each
// table's page 0.
type specScans struct {
	mgr   *core.Manager
	mu    sync.Mutex
	first map[core.TableID]disk.PageID
	buf   []core.ScanPosition
}

// attachScans makes mgr the scan source of pool for the tables of specs.
func attachScans(pool *buffer.Pool, mgr *core.Manager, specs []ScanSpec) {
	s := &specScans{mgr: mgr, first: make(map[core.TableID]disk.PageID)}
	for _, spec := range specs {
		s.first[spec.Table] = spec.PageID(0)
	}
	pool.SetScanSource(s)
}

func (s *specScans) AppendScans(dst []buffer.ScanState) []buffer.ScanState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if buf, ok := s.mgr.AppendScans(s.buf[:0]); ok {
		s.buf = buf
	}
	for _, sp := range s.buf {
		dst = append(dst, buffer.ScanState{
			Footprint: buffer.ScanFootprint{Base: s.first[sp.Table], Start: sp.Start, End: sp.End, Origin: sp.Origin},
			Processed: sp.Processed,
			Speed:     sp.Speed,
		})
	}
	return dst
}

// TestPolicyReplayDeterminism is the replay-determinism regression test for
// the replacement policies: two runs of the seeded chaos script must render
// byte-identical trace journals under every policy. Priority-LRU is fully
// deterministic by construction; the predictive policy must be too, because
// its only nondeterministic ingredient — the manager's map iteration when
// the pool reads its scans — is neutralized by an order-independent
// estimator and a strict-max victim walk. A diff here means a policy let
// scheduling or map order leak into eviction decisions.
func TestPolicyReplayDeterminism(t *testing.T) {
	for _, policy := range buffer.Policies() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			first := chaosScript(t, policy)
			second := chaosScript(t, policy)
			if first != second {
				t.Errorf("two seeded runs under %s diverged:\n--- first ---\n%s\n--- second ---\n%s",
					policy, first, second)
			}
		})
	}
}

// TestTranslationReplayDeterminism extends the replay guarantee to the
// array translation table: under the cooperative scheduler exactly one
// goroutine runs at a time, so the optimistic read path — atomics and all —
// must behave as a pure function of the schedule, and two seeded runs must
// render byte-identical artifacts for every policy × translation cell. The
// array artifacts must also show the lock-free path actually fired ("opt"
// fields in the per-scan results); a deterministic replay of a path that
// never ran would prove nothing.
func TestTranslationReplayDeterminism(t *testing.T) {
	for _, translation := range buffer.Translations() {
		for _, policy := range buffer.Policies() {
			t.Run(translation+"/"+policy, func(t *testing.T) {
				first := chaosScriptXlate(t, policy, translation, 0)
				second := chaosScriptXlate(t, policy, translation, 0)
				if first != second {
					t.Errorf("two seeded runs under %s/%s diverged:\n--- first ---\n%s\n--- second ---\n%s",
						translation, policy, first, second)
				}
				hasOpt := strings.Contains(first, " opt ")
				if translation == buffer.TranslationArray && !hasOpt {
					t.Error("array-translation replay recorded no optimistic hits; the fast path went unexercised")
				}
				if translation == buffer.TranslationMap && hasOpt {
					t.Error("map-translation replay recorded optimistic hits; the goldens cannot hold")
				}
			})
		}
	}
}

// TestPrefetchReplayDeterminism extends the replay guarantee to the prefetch
// pipeline and read coalescing: with two prefetch workers running as kernel
// processes beside the scans, two seeded runs must render byte-identical
// artifacts under every translation, and the run must actually have staged
// pages ahead of the scans and coalesced reads — a replay of paths that never
// ran would prove nothing.
func TestPrefetchReplayDeterminism(t *testing.T) {
	for _, translation := range buffer.Translations() {
		t.Run(translation, func(t *testing.T) {
			first := chaosScriptXlate(t, buffer.PolicyLRU, translation, 2)
			second := chaosScriptXlate(t, buffer.PolicyLRU, translation, 2)
			if first != second {
				t.Errorf("two seeded runs with prefetch under %s diverged:\n--- first ---\n%s\n--- second ---\n%s",
					translation, first, second)
			}
			if strings.Contains(first, " filled 0 ") || strings.Contains(first, " coalesced 0\n") {
				t.Errorf("the prefetch replay staged or coalesced nothing:\n%s", first[strings.Index(first, "[prefetch]"):])
			}
		})
	}
}

// TestPolicyReplayClassicMatchesGolden pins the refactor seam: the
// policy-parameterized script under priority-LRU must still produce the
// exact bytes of the pre-refactor golden artifact — the policy interface
// must not have changed classic eviction order at all.
func TestPolicyReplayClassicMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "chaos_trace.golden"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	if got := chaosScript(t, buffer.PolicyLRU); got != string(want) {
		t.Error("priority-LRU chaos script diverged from the golden artifact")
	}
}
