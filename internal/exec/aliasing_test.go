package exec

import (
	"bytes"
	"testing"

	"scanshare/internal/heap"
	"scanshare/internal/record"
)

// Decoded varchars are views into page bytes (record.ViewString), so
// everything that keeps a value — group keys, MIN/MAX state, Collect, Sort,
// the HashJoin build side — must clone it. These tests destroy the page bytes
// behind the operators' backs and require the rows to come out unharmed.

func poison(b []byte) {
	for i := range b {
		b[i] = 0xFF
	}
}

// TestAliasingGroupByConsumer folds every page from one scratch buffer that
// is poisoned after each OnPage call, with a varchar group key and MIN/MAX
// over a varchar: the rows must be byte-equal to those folded from the
// untouched pages, privately and through a shared state.
func TestAliasingGroupByConsumer(t *testing.T) {
	f := newFixture(t, 64)
	pages := sharedAggPages(t, f)
	for _, tc := range []struct {
		name    string
		groupBy []int
		aggs    []AggSpec
	}{
		{"varchar key", []int{2}, []AggSpec{{Kind: AggCount}, {Kind: AggSum, Ordinal: 1}}},
		{"varchar min max", nil, []AggSpec{{Kind: AggMin, Ordinal: 2}, {Kind: AggMax, Ordinal: 2}}},
		{"both", []int{2}, []AggSpec{{Kind: AggMin, Ordinal: 2}, {Kind: AggMax, Ordinal: 2}, {Kind: AggAvg, Ordinal: 0}}},
	} {
		for _, shared := range []bool{false, true} {
			fold := func(scratch []byte) []byte {
				c := &GroupByConsumer{Schema: f.tbl.Schema(), GroupBy: tc.groupBy, Aggs: tc.aggs}
				if shared {
					var err error
					if c.Shared, err = NewSharedAggState(tc.groupBy, tc.aggs, 3); err != nil {
						t.Fatal(err)
					}
				}
				for i, data := range pages {
					if scratch != nil {
						data = scratch[:copy(scratch, data)]
					}
					c.OnPage(i, data)
					poison(scratch)
				}
				rows, err := c.Results()
				if err != nil {
					t.Fatal(err)
				}
				if shared {
					rows = c.Shared.Rows()
				}
				return EncodeRows(rows)
			}
			want := fold(nil)
			if got := fold(make([]byte, 1024)); !bytes.Equal(got, want) {
				t.Errorf("%s, shared=%v: rows changed with the page buffer\n got: %q\nwant: %q", tc.name, shared, got, want)
			}
		}
	}
}

// poisonedScan is a TableScan over pages that do not outlive their turn: as
// soon as the scan has moved to the next page (or ended), the page it was
// serving is overwritten in place, on the device and so in the pool.
type poisonedScan struct {
	*TableScan
	f *fixture
}

func (p *poisonedScan) Next() (record.Tuple, bool, error) {
	before := p.visited
	t, ok, err := p.TableScan.Next()
	done := p.visited
	if ok {
		done-- // the newest page is still being served
	}
	for v := max(before-1, 0); v < done; v++ {
		pid, perr := p.Table.PageID(p.pageNo(v))
		if perr != nil {
			return nil, false, perr
		}
		data, perr := p.f.dev.ReadRaw(pid)
		if perr != nil {
			return nil, false, perr
		}
		poison(data)
	}
	return t, ok, err
}

// secondTable adds a table shaped like the fixture's, with rows keyed
// 0, step, 2*step, ..., to the fixture's device.
func (f *fixture) secondTable(t *testing.T, rows, step int) *heap.Table {
	t.Helper()
	b, err := heap.NewBuilder(f.dev, "second", f.tbl.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := b.Append(record.Tuple{
			record.Int64(int64(i * step)), record.Float64(float64(i)), record.String("second-" + string(rune('a'+i%7))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestAliasingOperators runs every operator that retains tuples over table
// scans whose pages are poisoned once the scan has left them. Each plan runs
// on its own fixture, first untouched and then poisoned, and must return the
// same bytes.
func TestAliasingOperators(t *testing.T) {
	plans := map[string]func(scan func(*heap.Table) Operator, f *fixture, second *heap.Table) Operator{
		"collect": func(scan func(*heap.Table) Operator, f *fixture, _ *heap.Table) Operator {
			return scan(f.tbl)
		},
		"aggregate": func(scan func(*heap.Table) Operator, f *fixture, _ *heap.Table) Operator {
			return &Aggregate{Input: scan(f.tbl), GroupBy: []int{2},
				Aggs: []AggSpec{{Kind: AggCount}, {Kind: AggMin, Ordinal: 2}, {Kind: AggMax, Ordinal: 2}}}
		},
		"aggregate min max": func(scan func(*heap.Table) Operator, f *fixture, _ *heap.Table) Operator {
			return &Aggregate{Input: scan(f.tbl), Aggs: []AggSpec{{Kind: AggMin, Ordinal: 2}, {Kind: AggMax, Ordinal: 2}}}
		},
		"sort": func(scan func(*heap.Table) Operator, f *fixture, _ *heap.Table) Operator {
			return &Sort{Input: scan(f.tbl), Keys: []SortKey{{Ordinal: 2, Desc: true}}}
		},
		"hash join": func(scan func(*heap.Table) Operator, f *fixture, second *heap.Table) Operator {
			// Build on the fixture, probe with the second table: several
			// probe rows per page match, so pending matches span Next calls.
			return &HashJoin{Left: scan(f.tbl), Right: scan(second), LeftOrdinal: 0, RightOrdinal: 0}
		},
		"sorted join": func(scan func(*heap.Table) Operator, f *fixture, second *heap.Table) Operator {
			return &Sort{
				Input: &HashJoin{Left: scan(second), Right: scan(f.tbl), LeftOrdinal: 0, RightOrdinal: 0},
				Keys:  []SortKey{{Ordinal: 5}},
			}
		},
	}
	for name, mkPlan := range plans {
		run := func(poisoned bool) []byte {
			f := newFixture(t, 200)
			second := f.secondTable(t, 300, 3)
			rows := runPlan(t, f, func() Operator {
				return mkPlan(func(tbl *heap.Table) Operator {
					ts := &TableScan{Table: tbl, CPUWeight: 1}
					if poisoned {
						return &poisonedScan{TableScan: ts, f: f}
					}
					return ts
				}, f, second)
			})
			if len(rows) == 0 {
				t.Fatalf("%s: no rows", name)
			}
			return EncodeRows(rows)
		}
		if got, want := run(true), run(false); !bytes.Equal(got, want) {
			t.Errorf("%s: rows changed when the scanned pages were poisoned\n got: %.200q\nwant: %.200q", name, got, want)
		}
	}
}
