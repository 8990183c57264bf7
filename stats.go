package scanshare

import (
	"fmt"

	"scanshare/internal/catalog"
	"scanshare/internal/record"
)

// colStats tracks the statistics the engine collects for one column while a
// table loads: value bounds and whether the column arrived in non-decreasing
// order. A monotone column is a physical clustering key — a range predicate
// on it selects a contiguous page range, which is what turns the paper's
// "analysts hit the last year" scenario into overlapping range scans.
//
// The bounds and the previous value are kept in the column's own type, in
// the member its kind selects: a row costs at most three typed comparisons
// per column and builds no Value. Varchars are kept by reference, which is
// safe because Go strings are immutable.
type colStats struct {
	kind     record.Kind
	seen     bool
	monotone bool
	i        bounds[int64] // bigint and date
	f        bounds[float64]
	s        bounds[string]
}

// bounds is the typed state of one column's stats. Its comparisons are
// record.Compare's: a NaN compares equal to everything, so it neither moves a
// bound nor breaks the order, and -0 equals +0.
type bounds[T int64 | float64 | string] struct{ min, max, prev T }

// first starts the bounds at v.
func (b *bounds[T]) first(v T) { b.min, b.max, b.prev = v, v, v }

// next folds v in and returns monotone, cleared if v broke the
// non-decreasing order. A value equal to the previous one — the common case
// for a low-cardinality varchar — changes nothing, and a column that is no
// longer monotone skips the order check.
func (b *bounds[T]) next(v T, monotone bool) bool {
	if v == b.prev {
		return monotone
	}
	if v < b.min {
		b.min = v
	} else if v > b.max {
		b.max = v
	}
	if monotone && v < b.prev {
		monotone = false
	}
	b.prev = v
	return monotone
}

func newColStats(schema *Schema) []colStats {
	out := make([]colStats, schema.NumFields())
	for i := range out {
		out[i].kind = schema.Field(i).Kind
		out[i].monotone = true
	}
	return out
}

// observeRow folds one row into the stats of its columns. A value of another
// kind than its column's panics, as record.Compare does.
func observeRow(stats []colStats, t Tuple) {
	t = t[:len(stats)]
	for i := range stats {
		c, v := &stats[i], &t[i]
		if v.Kind != c.kind {
			panic(fmt.Sprintf("record: comparing %v with %v", v.Kind, c.kind))
		}
		switch {
		case !c.seen:
			// Start all three members: the kind picks the one read.
			c.seen = true
			c.i.first(v.I)
			c.f.first(v.F)
			c.s.first(v.S)
		case c.kind == record.KindFloat64:
			c.monotone = c.f.next(v.F, c.monotone)
		case c.kind == record.KindString:
			c.monotone = c.s.next(v.S, c.monotone)
		default:
			c.monotone = c.i.next(v.I, c.monotone)
		}
	}
}

// minMax returns the column's minimum and maximum as Values.
func (c *colStats) minMax() (min, max record.Value) {
	switch c.kind {
	case record.KindFloat64:
		return record.Float64(c.f.min), record.Float64(c.f.max)
	case record.KindString:
		return record.String(c.s.min), record.String(c.s.max)
	default:
		return record.Value{Kind: c.kind, I: c.i.min}, record.Value{Kind: c.kind, I: c.i.max}
	}
}

// statsObserver wraps a load callback so every tuple it accepts updates the
// per-column statistics. A rejected tuple is not observed: the builder has
// checked an accepted one against the schema.
func statsObserver(stats []colStats, add func(Tuple) error) func(Tuple) error {
	return func(t Tuple) error {
		if err := add(t); err != nil {
			return err
		}
		observeRow(stats, t)
		return nil
	}
}

// tableStatsOf returns the recorded stats for a table, or nil.
func (e *Engine) tableStatsOf(id catalog.TableID) []colStats { return e.tableStats[id] }

// ColumnRange returns the minimum and maximum value the named column held at
// load time. ok is false when the column is unknown or the table is empty.
func (t *Table) ColumnRange(column string) (min, max Value, ok bool) {
	ord, err := t.Schema().Ordinal(column)
	if err != nil {
		return Value{}, Value{}, false
	}
	stats := t.eng.tableStatsOf(t.id)
	if ord >= len(stats) || !stats[ord].seen {
		return Value{}, Value{}, false
	}
	min, max = stats[ord].minMax()
	return min, max, true
}

// Clustered reports whether the named column arrived in non-decreasing
// insertion order, i.e. whether the table is physically clustered on it. A
// range predicate on a clustered column maps to a contiguous page range.
func (t *Table) Clustered(column string) bool {
	ord, err := t.Schema().Ordinal(column)
	if err != nil {
		return false
	}
	stats := t.eng.tableStatsOf(t.id)
	return ord < len(stats) && stats[ord].seen && stats[ord].monotone
}
