package server

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"scanshare/internal/trace"
)

// spanServerTracer builds a tracer draining into an unbounded recorder on a
// ring big enough that these tests drop nothing.
func spanServerTracer(t *testing.T) (*trace.Tracer, *trace.Recorder) {
	t.Helper()
	tr := trace.NewTracerSize(nil, 1<<14)
	rec := &trace.Recorder{}
	tr.Attach(rec)
	tr.Start(2 * time.Millisecond)
	return tr, rec
}

// childKinds returns the set of span kinds directly under a tree's root.
func childKinds(tree *trace.SpanTree) map[trace.SpanKind]int {
	kinds := make(map[trace.SpanKind]int)
	for _, c := range tree.Root.Children {
		kinds[c.Kind]++
	}
	return kinds
}

// TestSpanShedRequestTrees pins span behavior on the admission failure
// paths: a burst against a one-slot tenant sheds most of the load, and both
// shed and compile-error requests must still produce complete request trees
// — request root plus compile child, closed, no scan subtree — while the
// admitted requests carry the full compile/queue/scan shape.
func TestSpanShedRequestTrees(t *testing.T) {
	eng := testEngine(t, 32, 4000)
	tr, rec := spanServerTracer(t)
	srv := startServer(t, Config{
		Engine:    eng,
		Tenants:   []TenantConfig{{Name: "t0", MaxConcurrent: 1, MaxQueueDepth: 1}},
		PageDelay: 500 * time.Microsecond,
		Tracer:    tr,
	})

	const clients = 6
	const perClient = 3
	type outcome struct {
		traceID int64
		shed    bool
		ok      bool
	}
	var mu sync.Mutex
	var outcomes []outcome

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			for r := 0; r < perClient; r++ {
				req := Request{Tenant: "t0", Query: "SELECT count(*) FROM rt"}
				if err := WriteFrame(conn, &req); err != nil {
					t.Error(err)
					return
				}
				var resp Response
				if err := ReadFrame(conn, &resp); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				outcomes = append(outcomes, outcome{resp.TraceID, resp.Shed, resp.OK})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// One malformed statement: fails in compile, before admission.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, &Request{Tenant: "t0", Query: "SELECT FROM"}); err != nil {
		t.Fatal(err)
	}
	var badResp Response
	if err := ReadFrame(conn, &badResp); err != nil {
		t.Fatal(err)
	}
	if badResp.OK || badResp.Shed || badResp.TraceID == 0 {
		t.Fatalf("malformed query response = %+v", badResp)
	}
	outcomes = append(outcomes, outcome{badResp.TraceID, false, false})

	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("trace ring dropped %d events", d)
	}
	asm := trace.Assemble(rec.Events())
	if asm.Unclosed != 0 || asm.Orphans != 0 || asm.ExtraRoots != 0 {
		t.Fatalf("assembly not clean: %d unclosed, %d orphans, %d extra roots",
			asm.Unclosed, asm.Orphans, asm.ExtraRoots)
	}
	if len(asm.Trees) != len(outcomes) {
		t.Fatalf("%d trees for %d responses", len(asm.Trees), len(outcomes))
	}
	trees := make(map[int64]*trace.SpanTree, len(asm.Trees))
	for _, tree := range asm.Trees {
		trees[tree.Trace] = tree
	}

	var shed, admitted int
	for _, o := range outcomes {
		tree := trees[o.traceID]
		if tree == nil {
			t.Errorf("response trace %d has no tree", o.traceID)
			continue
		}
		if tree.Root.Kind != trace.SpanRequest {
			t.Errorf("trace %d root is %v, want request", o.traceID, tree.Root.Kind)
		}
		kinds := childKinds(tree)
		if kinds[trace.SpanCompile] != 1 {
			t.Errorf("trace %d has %d compile spans", o.traceID, kinds[trace.SpanCompile])
		}
		switch {
		case o.ok:
			admitted++
			if kinds[trace.SpanQueue] != 1 || kinds[trace.SpanScan] != 1 {
				t.Errorf("admitted trace %d children = %v, want queue and scan", o.traceID, kinds)
			}
		default:
			if o.shed {
				shed++
			}
			// Shed and compile-error requests never reached execution:
			// compile is the only child.
			if kinds[trace.SpanQueue] != 0 || kinds[trace.SpanScan] != 0 {
				t.Errorf("unadmitted trace %d children = %v, want compile only", o.traceID, kinds)
			}
		}
	}
	if shed == 0 {
		t.Error("burst shed nothing; admission limits not biting, shed-path spans unexercised")
	}
	if admitted == 0 {
		t.Error("no admitted requests")
	}
}

// TestSpanAcceptanceLatencyAttribution is the ISSUE's acceptance run: a
// seeded 16-request serve workload with tracing on, where for every
// completed query the assembled span tree must reproduce the driver-measured
// end-to-end latency within 1%, the per-component breakdown must sum to the
// tree total exactly, and the unattributed gap must stay under 2%.
func TestSpanAcceptanceLatencyAttribution(t *testing.T) {
	// ~50 pages at 40ms per page makes every query ~2s, so loopback framing
	// and client scheduling (the slack between driver-measured RTT and the
	// server-side request span: a fixed ~1-4ms under the race detector,
	// seen as high as 11ms on a loaded 2-CPU machine) stay inside the 1%
	// budget.
	eng := testEngine(t, 64, 22000)
	tr, rec := spanServerTracer(t)
	srv := startServer(t, Config{
		Engine: eng,
		Tenants: []TenantConfig{
			{Name: "t0", MaxConcurrent: 2, MaxQueueDepth: 8},
			{Name: "t1", MaxConcurrent: 2, MaxQueueDepth: 8},
		},
		PageDelay: 40 * time.Millisecond,
		Tracer:    tr,
	})

	var mu sync.Mutex
	rtts := make(map[int64]time.Duration)
	skip := make(map[int64]bool) // shed or failed attempts: no scan subtree
	stats, err := RunDriver(context.Background(), DriverConfig{
		Addr:    srv.Addr(),
		Clients: 16,
		Tenants: []string{"t0", "t1"},
		Queries: []string{
			"SELECT count(*) FROM rt",
			"SELECT count(*) FROM rt WHERE v > 100",
		},
		RequestsPerClient: 1,
		Seed:              7,
		RetryOnShed:       true,
		OnResponse: func(tenant string, resp Response, rtt time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			if resp.TraceID == 0 {
				t.Errorf("response without trace ID: %+v", resp)
				return
			}
			if !resp.OK {
				skip[resp.TraceID] = true
				return
			}
			rtts[resp.TraceID] = rtt
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 16 {
		t.Fatalf("driver completed %d, want 16: %s", stats.Completed, stats)
	}

	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("trace ring dropped %d events", d)
	}
	asm := trace.Assemble(rec.Events())
	if asm.Unclosed != 0 || asm.Orphans != 0 || asm.ExtraRoots != 0 {
		t.Fatalf("assembly not clean: %d unclosed, %d orphans, %d extra roots",
			asm.Unclosed, asm.Orphans, asm.ExtraRoots)
	}

	matched := 0
	for _, tree := range asm.Trees {
		if skip[tree.Trace] {
			continue
		}
		rtt, ok := rtts[tree.Trace]
		if !ok {
			t.Errorf("tree %d matches no completed response", tree.Trace)
			continue
		}
		matched++
		total := tree.Root.Dur()

		// Acceptance bound 1: the tree's end-to-end latency reproduces the
		// driver's wall-clock measurement within 1%. The request span nests
		// strictly inside the RTT, so the slack is one-sided.
		if total > rtt {
			t.Errorf("trace %d: span total %v exceeds driver RTT %v", tree.Trace, total, rtt)
		}
		if slack := rtt - total; slack > rtt/100 {
			t.Errorf("trace %d: span total %v vs RTT %v — slack %v exceeds 1%%",
				tree.Trace, total, rtt, slack)
		}

		// Acceptance bound 2: the component breakdown tiles the total with
		// no unattributed gap beyond 2%.
		b := tree.Breakdown()
		var sum time.Duration
		for _, c := range b.Components() {
			sum += c.Dur
		}
		if sum != total {
			t.Errorf("trace %d: components sum %v != total %v", tree.Trace, sum, total)
		}
		if b.Gap > total/50 {
			t.Errorf("trace %d: unattributed gap %v exceeds 2%% of %v", tree.Trace, b.Gap, total)
		}
		if b.Scan == 0 || b.Process == 0 {
			t.Errorf("trace %d: breakdown missing scan/process time: %+v", tree.Trace, b)
		}
	}
	if matched != 16 {
		t.Errorf("matched %d trees to completed responses, want 16", matched)
	}
}
