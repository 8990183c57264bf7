package realtime

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scanshare/internal/buffer"
	"scanshare/internal/core"
	"scanshare/internal/disk"
	"scanshare/internal/fault"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// goldenChaosScript runs the fixed 4-scan fault script in a KernelEnv and
// renders everything observable — the schedule of hook sites, the manager
// decision events, and the per-scan outcomes — as one text artifact.
// Every timestamp is virtual, every fault decision is a pure hash, so the
// artifact is byte-identical across runs, machines, and -race: any diff is a
// real behavior change.
func goldenChaosScript(t *testing.T) string {
	return chaosScript(t, buffer.PolicyLRU)
}

// chaosScript is the golden script parameterized over the pool's replacement
// policy; the replay-determinism test runs it for every policy, the golden
// test pins the priority-LRU rendering byte-for-byte.
func chaosScript(t *testing.T, policy string) string {
	return chaosScriptXlate(t, policy, buffer.TranslationMap, 0)
}

// chaosScriptXlate additionally parameterizes the translation table. Map
// translation renders the exact bytes the pre-array goldens pinned (the
// optimistic path is structurally absent there); array translation adds an
// "opt N" field per scan, which the translation-replay test uses to prove
// the lock-free path both fired and replayed deterministically under the
// cooperative scheduler. prefetch is the number of prefetch workers; the
// goldens pin 0.
func chaosScriptXlate(t *testing.T, policy, translation string, prefetch int) string {
	t.Helper()
	const (
		tablePages = 100
		poolPages  = 64
		scans      = 4
	)
	plan := fault.Plan{
		Seed: 11,
		Rules: []fault.Rule{
			{Kind: fault.KindError, FirstPage: 70, LastPage: 72, Prob: 1},
			{Kind: fault.KindStall, FirstPage: 20, LastPage: 30, Prob: 0.3, UntilAttempt: 1},
			{Kind: fault.KindError, Prob: 0.1, UntilAttempt: 2},
			{Kind: fault.KindLatency, Prob: 0.15, Latency: 250 * time.Microsecond},
		},
	}
	store := fault.MustNewStore(testStore{pageBytes: 16}, plan)

	pool := buffer.MustNewPoolOpts(buffer.PoolOptions{
		Capacity: poolPages, Shards: 1, Policy: policy, Translation: translation,
	})
	mgr := core.MustNewManager(testManagerConfig(poolPages))
	var events []core.Event
	mgr.SetOnEvent(func(ev core.Event) { events = append(events, ev) })

	env := NewKernelEnv(23, 400*time.Microsecond)
	hook, steps := stepRecorder(env)
	r, err := NewRunner(Config{
		Pool:                  pool,
		Manager:               mgr,
		Store:                 store,
		Env:                   env,
		Hook:                  hook,
		PrefetchWorkers:       prefetch,
		ReadTimeout:           time.Millisecond,
		MaxReadRetries:        3,
		DetachAfterFailures:   2,
		ContinueOnPageFailure: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	specs := make([]ScanSpec, scans)
	for i := range specs {
		specs[i] = ScanSpec{
			Table:             1,
			TablePages:        tablePages,
			PageID:            func(pageNo int) disk.PageID { return disk.PageID(pageNo) },
			EstimatedDuration: time.Duration(4+i) * time.Millisecond,
			StartDelay:        time.Duration(i) * 800 * time.Microsecond,
			PageDelay:         time.Duration(40+10*i) * time.Microsecond,
		}
	}
	specs[3].StartPage, specs[3].EndPage = 10, 90
	attachScans(pool, mgr, specs)

	results, err := r.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	pool.CheckInvariants()

	var b strings.Builder
	b.WriteString("# golden chaos trace: 4 scans, fault plan seed 11, kernel seed 23\n")
	b.WriteString("\n[schedule]\n")
	b.WriteString(FormatTrace(*steps))
	b.WriteString("\n[events]\n")
	for _, ev := range events {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	b.WriteString("\n[results]\n")
	for i, res := range results {
		fmt.Fprintf(&b, "scan %d: pages %d hits %d misses %d degraded %d retries %d timeouts %d detaches %d rejoins %d checksum %d",
			i, res.PagesRead, res.Hits, res.Misses, res.DegradedPages,
			res.ReadRetries, res.ReadTimeouts, res.Detaches, res.Rejoins, res.Checksum)
		if res.OptimisticHits > 0 {
			// Only array translation can make this nonzero; under map the
			// line stays byte-identical to the pre-array goldens.
			fmt.Fprintf(&b, " opt %d", res.OptimisticHits)
		}
		b.WriteByte('\n')
	}
	fc := store.Counters()
	fmt.Fprintf(&b, "\n[faults]\n%s\n", fc)
	if prefetch > 0 {
		cs := r.Collector().Snapshot()
		fmt.Fprintf(&b, "\n[prefetch]\nworkers %d filled %d coalesced %d\n",
			prefetch, cs.PrefetchFilled, cs.ReadsCoalesced)
	}
	return b.String()
}

// TestGoldenChaosTrace replays the fixed fault script and compares the full
// trace byte-for-byte against testdata/chaos_trace.golden. Regenerate with
//
//	go test ./internal/realtime -run TestGoldenChaosTrace -update
//
// after an intentional behavior change, and review the diff like code: it IS
// the observable behavior of the failure path.
func TestGoldenChaosTrace(t *testing.T) {
	got := goldenChaosScript(t)
	path := filepath.Join("testdata", "chaos_trace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("chaos trace diverged from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}

	// And the script must replay itself within the same process too.
	if again := goldenChaosScript(t); again != got {
		t.Error("back-to-back runs of the golden script diverged in-process")
	}
}
