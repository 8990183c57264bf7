package realtime

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scanshare/internal/buffer"
)

// TestPolicyReplayDeterminism is the replay-determinism regression test for
// the replacement policies: two runs of the seeded chaos script must render
// byte-identical trace journals under every policy. Priority-LRU is fully
// deterministic by construction; the predictive policy must be too, because
// its only nondeterministic ingredient — scan-table map iteration — is
// neutralized by an order-independent estimator and a strict-max victim
// walk. A diff here means a policy let scheduling or map order leak into
// eviction decisions.
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
