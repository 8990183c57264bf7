package scanshare_test

import (
	"context"
	"testing"
	"time"

	"scanshare"
	"scanshare/internal/trace"
)

// engineTracer builds an enabled tracer with an unbounded recorder for the
// engine-level span tests.
func engineTracer(t *testing.T) (*trace.Tracer, *trace.Recorder) {
	t.Helper()
	tr := trace.NewTracerSize(nil, 1<<15)
	rec := &trace.Recorder{}
	tr.Attach(rec)
	tr.Start(2 * time.Millisecond)
	return tr, rec
}

// TestSpanEngineRealtimeRoots checks the engine layer's span wiring: scans
// submitted without a span context get fresh root spans when a tracer is
// passed, the trees assemble cleanly, the dropped count is synced into the
// run counters, and the per-scan results carry the measured wait breakdown.
func TestSpanEngineRealtimeRoots(t *testing.T) {
	eng, tbl := newEngine(t, 24, 3000) // pool << table: physical reads guaranteed
	tr, rec := engineTracer(t)

	scans := make([]scanshare.RealtimeScan, 4)
	for i := range scans {
		scans[i] = scanshare.RealtimeScan{
			Table:      tbl,
			PageDelay:  20 * time.Microsecond,
			StartDelay: time.Duration(i) * 200 * time.Microsecond,
		}
	}
	rep, err := eng.RunRealtime(context.Background(),
		scanshare.RealtimeOptions{Tracer: tr, PageReadDelay: 100 * time.Microsecond}, scans)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("trace ring dropped %d events", d)
	}
	if rep.Counters.TraceDropped != 0 {
		t.Errorf("run counters report %d dropped trace events", rep.Counters.TraceDropped)
	}

	asm := trace.Assemble(rec.Events())
	if len(asm.Trees) != len(scans) || asm.Unclosed != 0 || asm.Orphans != 0 || asm.ExtraRoots != 0 {
		t.Fatalf("assembly = %d trees (%d unclosed, %d orphans, %d extra roots), want %d clean trees",
			len(asm.Trees), asm.Unclosed, asm.Orphans, asm.ExtraRoots, len(scans))
	}
	agg := asm.Aggregate()
	for _, tree := range asm.Trees {
		if tree.Root.Kind != trace.SpanScan {
			t.Errorf("trace %d root is %v, want scan (engine-allocated root)", tree.Trace, tree.Root.Kind)
		}
	}
	if agg.Read == 0 {
		t.Error("no read time attributed despite a pool smaller than the table")
	}

	// The span totals agree exactly with the inline result counters.
	var read, poolWait, throttle time.Duration
	for _, res := range rep.Results {
		read += res.ReadWait
		poolWait += res.PoolWait
		throttle += res.ThrottleWait
	}
	if agg.Read != read || agg.PoolWait != poolWait || agg.Throttle != throttle {
		t.Errorf("span totals read=%v pool=%v throttle=%v, counters say %v/%v/%v",
			agg.Read, agg.PoolWait, agg.Throttle, read, poolWait, throttle)
	}

	// The per-scan results carry the read component on their own, without
	// the trace (the dropped count is checked on rep.Counters above).
	if read == 0 {
		t.Error("per-scan results attribute no read wait despite a pool smaller than the table")
	}
}

// TestSpanEngineAggFolds checks the shared-aggregation layer: each query's
// fold work is timed and lands as exactly one fold span under that query's
// scan root.
func TestSpanEngineAggFolds(t *testing.T) {
	const queries = 3
	eng, tbl := newEngine(t, 512, 4000)
	tr, rec := engineTracer(t)

	rep, err := eng.RunRealtimeAggregates(context.Background(),
		scanshare.RealtimeOptions{Tracer: tr}, aggQueries(tbl, queries), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != queries+1 {
		t.Fatalf("%d row sets for %d queries", len(rep.Rows), queries+1)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("trace ring dropped %d events", d)
	}

	asm := trace.Assemble(rec.Events())
	if len(asm.Trees) != queries+1 || asm.Unclosed != 0 || asm.Orphans != 0 {
		t.Fatalf("assembly = %d trees (%d unclosed, %d orphans), want %d clean trees",
			len(asm.Trees), asm.Unclosed, asm.Orphans, queries+1)
	}
	for _, tree := range asm.Trees {
		if tree.Root.Kind != trace.SpanScan {
			t.Errorf("trace %d root is %v, want scan", tree.Trace, tree.Root.Kind)
			continue
		}
		folds := 0
		var foldDur time.Duration
		for _, c := range tree.Root.Children {
			if c.Kind == trace.SpanFold {
				folds++
				foldDur += c.Dur()
			}
		}
		if folds != 1 || foldDur <= 0 {
			t.Errorf("trace %d has %d fold spans totalling %v, want exactly one with positive duration",
				tree.Trace, folds, foldDur)
		}
	}
	if b := asm.Aggregate(); b.Fold <= 0 || b.Fold >= b.Total {
		t.Errorf("aggregate fold %v out of range (total %v)", b.Fold, b.Total)
	}
}
