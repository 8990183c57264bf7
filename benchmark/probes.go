package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"testing"
	"time"

	"scanshare"
	"scanshare/internal/buffer"
	"scanshare/internal/core"
	"scanshare/internal/disk"
	"scanshare/internal/exec"
	"scanshare/internal/heap"
	"scanshare/internal/server"
	"scanshare/internal/sim"
	"scanshare/internal/trace"
	"scanshare/internal/workload"
)

// The layers pass: each probe times one layer's exported functions in
// isolation with testing.Benchmark, so that pages x per-layer cost can be set
// against what the span breakdown reports end to end.

// probeFixture is what the probes share: a small engine for the calls that
// need one, and real lineitem pages captured through the public OnPage hook.
type probeFixture struct {
	eng    *scanshare.Engine
	db     *workload.DB
	pages  [][]byte
	schema *scanshare.Schema
}

const probePages = 64

func newProbeFixture(seed int64) (*probeFixture, error) {
	gen := workload.GenConfig{ScaleFactor: 1, Seed: seed}
	eng, err := scanshare.New(scanshare.Config{
		BufferPoolPages: workload.BufferPoolFor(gen, 0, 0.05),
		Sharing:         scanshare.SharingConfig{PrefetchExtentPages: 8},
	})
	if err != nil {
		return nil, err
	}
	db, err := workload.Load(eng, gen)
	if err != nil {
		return nil, err
	}
	f := &probeFixture{eng: eng, db: db, schema: db.Lineitem.Schema(), pages: make([][]byte, probePages)}
	_, err = eng.RunRealtime(context.Background(), scanshare.RealtimeOptions{}, []scanshare.RealtimeScan{{
		Table: db.Lineitem, EndPage: probePages,
		OnPage: func(pageNo int, data []byte) { f.pages[pageNo] = data },
	}})
	if err != nil {
		return nil, err
	}
	for i, p := range f.pages {
		if p == nil {
			return nil, fmt.Errorf("probe fixture: page %d was not delivered", i)
		}
	}
	return f, nil
}

// runProbes runs every probe for about benchtime each and returns the
// per-layer metrics they produce.
func runProbes(seed int64, benchtime time.Duration) (map[string]float64, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		return nil, err
	}
	f, err := newProbeFixture(seed)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	var failure error
	probe := func(name string, withAllocs bool, scale float64, fn func(b *testing.B) error) {
		res := testing.Benchmark(func(b *testing.B) {
			if err := fn(b); err != nil && failure == nil {
				failure = fmt.Errorf("probe %s: %w", name, err)
			}
		})
		if res.N == 0 {
			if failure == nil {
				failure = fmt.Errorf("probe %s did not run", name)
			}
			return
		}
		out[name] = float64(res.T.Nanoseconds()) / float64(res.N) * scale
		if withAllocs {
			out[name+"_allocs"] = float64(res.MemAllocs) / float64(res.N)
		}
	}

	residentPool := func(translation string) (*buffer.Pool, error) {
		p, err := buffer.NewPoolOpts(buffer.PoolOptions{Capacity: 2 * probePages, Translation: translation})
		if err != nil {
			return nil, err
		}
		for i, data := range f.pages {
			if st, _ := p.Acquire(disk.PageID(i)); st != buffer.Miss {
				return nil, fmt.Errorf("priming page %d: %v", i, st)
			}
			if err := p.Fill(disk.PageID(i), data); err != nil {
				return nil, err
			}
			if err := p.Release(disk.PageID(i), buffer.PriorityNormal); err != nil {
				return nil, err
			}
		}
		return p, nil
	}
	for _, tr := range []string{buffer.TranslationMap, buffer.TranslationArray} {
		probe("buffer.acquire_hit_release_ns."+tr, true, 1, func(b *testing.B) error {
			p, err := residentPool(tr)
			if err != nil {
				return err
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pid := disk.PageID(i % probePages)
				if st, _ := p.Acquire(pid); st != buffer.Hit {
					return fmt.Errorf("acquire: %v", st)
				}
				if err := p.Release(pid, buffer.PriorityNormal); err != nil {
					return err
				}
			}
			return nil
		})
	}
	probe("buffer.read_optimistic_ns", true, 1, func(b *testing.B) error {
		p, err := residentPool(buffer.TranslationArray)
		if err != nil {
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := p.ReadOptimistic(disk.PageID(i % probePages)); !ok {
				return fmt.Errorf("optimistic read of a resident page fell back")
			}
		}
		return nil
	})
	probe("buffer.miss_fill_evict_ns", true, 1, func(b *testing.B) error {
		// A pool smaller than the page cycle: every acquire misses and,
		// once the pool is full, evicts.
		p, err := buffer.NewPoolOpts(buffer.PoolOptions{Capacity: probePages / 4})
		if err != nil {
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pid := disk.PageID(i % probePages)
			if st, _ := p.Acquire(pid); st != buffer.Miss {
				return fmt.Errorf("acquire: %v", st)
			}
			if err := p.Fill(pid, f.pages[pid]); err != nil {
				return err
			}
			if err := p.Release(pid, buffer.PriorityNormal); err != nil {
				return err
			}
		}
		return nil
	})

	managerCfg := core.DefaultConfig(1000)
	managerCfg.PrefetchExtentPages = 8
	probe("core.report_progress_ns", false, 1, func(b *testing.B) error {
		// Eight scans of one table advancing in lock step: one group, the
		// shape rt_shared_agg keeps the manager in.
		m, err := core.NewManager(managerCfg)
		if err != nil {
			return err
		}
		ids := make([]core.ScanID, rtConsumers)
		for i := range ids {
			if ids[i], _, err = m.StartScan(core.ScanOpts{Table: 1, TablePages: 1 << 40}, 0); err != nil {
				return err
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round := i/len(ids) + 1
			now := time.Duration(round) * time.Millisecond
			if _, err := m.ReportProgress(ids[i%len(ids)], round*8, now); err != nil {
				return err
			}
		}
		return nil
	})
	probe("core.start_end_scan_ns", false, 1, func(b *testing.B) error {
		m, err := core.NewManager(managerCfg)
		if err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			now := time.Duration(i) * time.Millisecond
			id, _, err := m.StartScan(core.ScanOpts{Table: 1, TablePages: 10000}, now)
			if err != nil {
				return err
			}
			if err := m.EndScan(id, now); err != nil {
				return err
			}
		}
		return nil
	})

	probe("disk.read_raw_ns", false, 1, func(b *testing.B) error {
		dev, err := disk.New(disk.DefaultModel(), 0)
		if err != nil {
			return err
		}
		first, err := dev.Allocate(probePages)
		if err != nil {
			return err
		}
		for i, data := range f.pages {
			if err := dev.Write(first+disk.PageID(i), data); err != nil {
				return err
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dev.ReadRaw(first + disk.PageID(i%probePages)); err != nil {
				return err
			}
		}
		return nil
	})

	groupBy := []int{f.schema.MustOrdinal("l_returnflag"), f.schema.MustOrdinal("l_linestatus")}
	aggs := []exec.AggSpec{
		{Kind: exec.AggSum, Ordinal: f.schema.MustOrdinal("l_quantity")},
		{Kind: exec.AggSum, Ordinal: f.schema.MustOrdinal("l_extendedprice")},
		{Kind: exec.AggCount},
	}
	for _, mode := range []string{"private", "shared"} {
		probe("exec.group_by_page_ns."+mode, true, 1, func(b *testing.B) error {
			c := &exec.GroupByConsumer{Schema: f.schema, GroupBy: groupBy, Aggs: aggs}
			if mode == "shared" {
				var err error
				if c.Shared, err = exec.NewSharedAggState(groupBy, aggs, 0); err != nil {
					return err
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.OnPage(i, f.pages[i%probePages]) // a fresh page number each time: shared state folds a page once
			}
			_, err := c.Results()
			return err
		})
	}
	probe("heap.view_decode_page_ns", true, 1, func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			v, err := heap.View(f.schema, f.pages[i%probePages])
			if err != nil {
				return err
			}
			if err := v.ForEach(func(scanshare.Tuple) error { return nil }); err != nil {
				return err
			}
		}
		return nil
	})

	probe("realtime.run_call_overhead_us", false, 1e-3, func(b *testing.B) error {
		// A one-page scan: what remains is the per-call construction of the
		// runner, flight table and prefetcher that every served request pays.
		scan := []scanshare.RealtimeScan{{Table: f.db.Customer, EndPage: 1}}
		for i := 0; i < b.N; i++ {
			if _, err := f.eng.RunRealtime(context.Background(), scanshare.RealtimeOptions{}, scan); err != nil {
				return err
			}
		}
		return nil
	})
	probe("sql.parse_compile_ns", false, 1, func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			if _, err := f.eng.CompileRealtimeScan(serveStatements[0].sql); err != nil {
				return err
			}
		}
		return nil
	})
	probe("server.frame_roundtrip_ns", true, 1, func(b *testing.B) error {
		req := server.Request{Tenant: "analytics", Query: serveStatements[0].sql}
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			var back server.Request
			if err := server.WriteFrame(&buf, &req); err != nil {
				return err
			}
			if err := server.ReadFrame(&buf, &back); err != nil {
				return err
			}
		}
		return nil
	})
	probe("trace.emit_span_ns", false, 1, func(b *testing.B) error {
		// As in a traced run: emitters push, a background drainer keeps up.
		tr := trace.NewTracerSize(nil, 1<<16)
		tr.Attach(&trace.Recorder{Cap: 1024})
		tr.Start(time.Millisecond)
		root := tr.Root()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.EmitSpan(root, trace.SpanRead, 1, 1, time.Microsecond)
		}
		b.StopTimer()
		return tr.Close()
	})
	probe("sim.sleep_event_ns", false, 1, func(b *testing.B) error {
		k := sim.New()
		k.Spawn("sleeper", 0, func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		k.Run()
		return nil
	})
	return out, failure
}
