package workload

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"scanshare"
	"scanshare/internal/disk"
	"scanshare/internal/heap/heaptest"
)

// refGenerate is Load's generator as it was written before the loaders
// started reusing one tuple: a fresh Tuple literal per row. It hands each
// table's schema and rows to loadTable in Load's order.
func refGenerate(cfg GenConfig, loadTable func(name string, schema *scanshare.Schema, load func(add func(scanshare.Tuple) error) error) error) error {
	rows := func(sf1 int) int {
		n := int(float64(sf1) * cfg.ScaleFactor)
		if n < 1 {
			n = 1
		}
		return n
	}
	nLine := rows(lineitemRowsSF1)
	err := loadTable("lineitem", LineitemSchema(), func(add func(scanshare.Tuple) error) error {
		rng := rand.New(rand.NewSource(cfg.Seed))
		for i := 0; i < nLine; i++ {
			day := int64(i) * DataDays / int64(nLine)
			qty := float64(1 + rng.Intn(50))
			price := qty * (900 + 200*rng.Float64())
			err := add(scanshare.Tuple{
				scanshare.Int64(int64(1 + rng.Intn(nLine/2+1))),
				scanshare.Int64(int64(1 + rng.Intn(rows(partRowsSF1)))),
				scanshare.Float64(qty),
				scanshare.Float64(price),
				scanshare.Float64(float64(rng.Intn(11)) / 100),
				scanshare.Float64(float64(rng.Intn(9)) / 100),
				scanshare.String(returnFlags[rng.Intn(len(returnFlags))]),
				scanshare.String(lineStatuses[rng.Intn(len(lineStatuses))]),
				scanshare.Date(day),
				scanshare.String(shipModes[rng.Intn(len(shipModes))]),
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	nOrders := rows(ordersRowsSF1)
	err = loadTable("orders", OrdersSchema(), func(add func(scanshare.Tuple) error) error {
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		for i := 0; i < nOrders; i++ {
			day := int64(i) * DataDays / int64(nOrders)
			err := add(scanshare.Tuple{
				scanshare.Int64(int64(i + 1)),
				scanshare.Int64(int64(1 + rng.Intn(rows(customerRowsSF1)))),
				scanshare.Float64(1000 + 99000*rng.Float64()),
				scanshare.Date(day),
				scanshare.String(priorities[rng.Intn(len(priorities))]),
				scanshare.String(orderStati[rng.Intn(len(orderStati))]),
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	nPart := rows(partRowsSF1)
	err = loadTable("part", PartSchema(), func(add func(scanshare.Tuple) error) error {
		rng := rand.New(rand.NewSource(cfg.Seed + 2))
		for i := 0; i < nPart; i++ {
			err := add(scanshare.Tuple{
				scanshare.Int64(int64(i + 1)),
				scanshare.String(brands[rng.Intn(len(brands))]),
				scanshare.String(types[rng.Intn(len(types))]),
				scanshare.Int64(int64(1 + rng.Intn(50))),
				scanshare.Float64(900 + 200*rng.Float64()),
				scanshare.String(containers[rng.Intn(len(containers))]),
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	nCust := rows(customerRowsSF1)
	return loadTable("customer", CustomerSchema(), func(add func(scanshare.Tuple) error) error {
		rng := rand.New(rand.NewSource(cfg.Seed + 3))
		for i := 0; i < nCust; i++ {
			err := add(scanshare.Tuple{
				scanshare.Int64(int64(i + 1)),
				scanshare.Int64(int64(rng.Intn(25))),
				scanshare.Float64(-999 + 10999*rng.Float64()),
				scanshare.String(segments[rng.Intn(len(segments))]),
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// enginePages reads every page of tbl through a realtime scan, the one
// public path to the bytes a table's pages hold.
func enginePages(t *testing.T, eng *scanshare.Engine, tbl *scanshare.Table) [][]byte {
	t.Helper()
	pages := make([][]byte, tbl.NumPages())
	_, err := eng.RunRealtime(context.Background(), scanshare.RealtimeOptions{}, []scanshare.RealtimeScan{{
		Table:  tbl,
		OnPage: func(pageNo int, data []byte) { pages[pageNo] = bytes.Clone(data) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	return pages
}

// TestLoadMatchesReference is the byte-identity oracle for the paper's
// database: Load at scale 1, seeds 42 and 7, must put on the device exactly
// the pages the reference loader builds from the reference generator, and
// report the same counts and column statistics for every table.
func TestLoadMatchesReference(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		cfg := GenConfig{ScaleFactor: 1, Seed: seed}
		eng := testEngine(t, BufferPoolFor(cfg, 0, 0.05))
		db, err := Load(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dev := disk.MustNew(disk.DefaultModel(), 0)
		tables := map[string]*scanshare.Table{"lineitem": db.Lineitem, "orders": db.Orders, "part": db.Part, "customer": db.Customer}
		err = refGenerate(cfg, func(name string, schema *scanshare.Schema, load func(add func(scanshare.Tuple) error) error) error {
			ref, err := heaptest.RefLoad(dev, schema, load)
			if err != nil {
				return err
			}
			tbl := tables[name]
			if tbl.NumPages() != len(ref.Pages) || tbl.NumTuples() != ref.Tuples {
				t.Fatalf("seed %d %s: %d pages, %d tuples; reference %d, %d", seed, name, tbl.NumPages(), tbl.NumTuples(), len(ref.Pages), ref.Tuples)
			}
			for i, page := range enginePages(t, eng, tbl) {
				if !bytes.Equal(page, ref.Pages[i]) {
					t.Fatalf("seed %d %s: page %d differs from the reference", seed, name, i)
				}
			}
			for i, want := range ref.Stats {
				col := schema.Field(i).Name
				min, max, ok := tbl.ColumnRange(col)
				if ok != want.Seen || !heaptest.SameValue(min, want.Min) || !heaptest.SameValue(max, want.Max) {
					t.Errorf("seed %d %s.%s: range %#v..%#v, reference %#v..%#v", seed, name, col, min, max, want.Min, want.Max)
				}
				if tbl.Clustered(col) != want.Monotone {
					t.Errorf("seed %d %s.%s: clustered %v, reference %v", seed, name, col, tbl.Clustered(col), want.Monotone)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
