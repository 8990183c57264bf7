package workload

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"scanshare"
)

// tableRows reads every row of tbl, every column decoded.
func tableRows(t *testing.T, eng *scanshare.Engine, tbl *scanshare.Table) []scanshare.Tuple {
	t.Helper()
	rep, err := eng.Run(scanshare.Baseline, []scanshare.Job{{Query: scanshare.NewQuery(tbl)}})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Results[0].Rows
}

// otherValue draws a replacement for column c: half the time the column's
// value in another generated row, so that a predicate comparing it with a
// literal of the column's domain sees both outcomes, otherwise an arbitrary
// value of its kind.
func otherValue(rng *rand.Rand, rows []scanshare.Tuple, c int) scanshare.Value {
	v := rows[rng.Intn(len(rows))][c]
	if rng.Intn(2) == 0 {
		return v
	}
	switch v.Kind {
	case scanshare.KindFloat64:
		return scanshare.Float64(rng.NormFloat64() * 1e5)
	case scanshare.KindString:
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte(' ' + rng.Intn(95))
		}
		return scanshare.String(string(b))
	default:
		v.I = rng.Int63n(1<<40) - 1<<39
		return v
	}
}

// TestTemplateReadsCoverPredicates is the check on every template's reads
// declaration: on generated rows, randomizing the columns a predicate does
// not declare never changes its verdict — the scan leaves exactly those
// columns undecoded — and every column it declares changes the verdict for
// some row, so nothing is decoded for nothing.
func TestTemplateReadsCoverPredicates(t *testing.T) {
	eng, db := loadSmall(t)
	rng := rand.New(rand.NewSource(1))
	for _, tpl := range Templates() {
		if tpl.pred == nil {
			if len(tpl.reads) > 0 {
				t.Errorf("%s declares reads without a predicate", tpl.Name)
			}
			continue
		}
		tbl := db.table(tpl.Table)
		schema := tbl.Schema()
		rows := tableRows(t, eng, tbl)
		declared := make([]bool, schema.NumFields())
		for _, name := range tpl.reads {
			ord, err := schema.Ordinal(name)
			if err != nil {
				t.Fatalf("%s: %v", tpl.Name, err)
			}
			declared[ord] = true
		}
		flipped := make([]bool, schema.NumFields())
		for trial := 0; trial < 2000; trial++ {
			row := rows[rng.Intn(len(rows))]
			want := tpl.pred(row)
			blind := row.Clone()
			for c := range blind {
				if !declared[c] {
					blind[c] = otherValue(rng, rows, c)
				}
			}
			if tpl.pred(blind) != want {
				t.Fatalf("%s: verdict on %v changes to %v when undeclared columns become %v: its reads %q miss a column",
					tpl.Name, row, !want, blind, tpl.reads)
			}
			for c := range row {
				if declared[c] && !flipped[c] {
					one := row.Clone()
					one[c] = otherValue(rng, rows, c)
					flipped[c] = tpl.pred(one) != want
				}
			}
		}
		for c, d := range declared {
			if d && !flipped[c] {
				t.Errorf("%s declares %q, but no value of it changed a verdict", tpl.Name, schema.Field(c).Name)
			}
		}
	}
}

// TestTemplatesMatchOpaquePlans runs the 22 templates on the page loop —
// declared reads, selective decode, page-at-a-time fold — and as the same
// plans with an opaque predicate (Where without reads; always true where a
// template has none), which decode every column and pull tuples through the
// operators one at a time. Rows must be byte-equal and every query's
// accounting identical: what a scan decodes changes no virtual time.
func TestTemplatesMatchOpaquePlans(t *testing.T) {
	opaque := func(tpl Template, db *DB) *scanshare.Query {
		tpl.reads = nil
		if tpl.pred == nil {
			tpl.pred = func(scanshare.Tuple) bool { return true }
		}
		return tpl.Query(db)
	}
	for _, seed := range []int64{42, 7} {
		for _, mode := range []scanshare.Mode{scanshare.Baseline, scanshare.Shared} {
			run := func(query func(Template, *DB) *scanshare.Query) []scanshare.QueryResult {
				eng := testEngine(t, 48)
				db, err := Load(eng, GenConfig{ScaleFactor: 0.3, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				var jobs []scanshare.Job
				for i, tpl := range Templates() {
					jobs = append(jobs, scanshare.Job{Query: query(tpl, db), Start: time.Duration(i) * 3 * time.Millisecond, Stream: i})
				}
				rep, err := eng.Run(mode, jobs)
				if err != nil {
					t.Fatal(err)
				}
				return rep.Results
			}
			got, want := run(Template.Query), run(opaque)
			for i := range want {
				g, w := got[i], want[i]
				if !bytes.Equal(scanshare.EncodeAggRows(g.Rows), scanshare.EncodeAggRows(w.Rows)) {
					t.Errorf("seed %d %v %s: rows %v, opaque plan %v", seed, mode, w.Name, g.Rows, w.Rows)
				}
				g.Rows, w.Rows = nil, nil
				if !reflect.DeepEqual(g, w) {
					t.Errorf("seed %d %v %s: result %+v, opaque plan %+v", seed, mode, w.Name, g, w)
				}
			}
		}
	}
}
