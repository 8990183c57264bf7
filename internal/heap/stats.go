package heap

import (
	"math"

	"scanshare/internal/record"
)

// ColumnStats are the statistics a table collects for one column while it
// loads: value bounds, and whether the column arrived in non-decreasing
// order. A monotone column is a physical clustering key — a range predicate
// on it selects a contiguous page range.
//
// They are folded a page at a time from the builder's column buffers, in
// the column's own type. Comparisons are record.Compare's: a NaN compares
// equal to everything, so it neither moves a bound nor breaks the order,
// and -0 equals +0.
type ColumnStats struct {
	kind     record.Kind
	seen     bool
	monotone bool
	i        bounds[int64] // bigint and date
	f        bounds[float64]
	s        bounds[string]
}

// Range returns the column's minimum and maximum; ok is false for a column
// of no rows.
func (c ColumnStats) Range() (min, max record.Value, ok bool) {
	switch c.kind {
	case record.KindFloat64:
		return record.Float64(c.f.min), record.Float64(c.f.max), c.seen
	case record.KindString:
		return record.String(c.s.min), record.String(c.s.max), c.seen
	default:
		return record.Value{Kind: c.kind, I: c.i.min}, record.Value{Kind: c.kind, I: c.i.max}, c.seen
	}
}

// Monotone reports whether the column has rows and they arrived in
// non-decreasing order.
func (c ColumnStats) Monotone() bool { return c.seen && c.monotone }

// bounds is the typed state of one column's stats.
type bounds[T int64 | float64 | string] struct{ min, max, prev T }

// first starts the bounds at v.
func (b *bounds[T]) first(v T) { b.min, b.max, b.prev = v, v, v }

// next folds v in and returns monotone, cleared if v broke the
// non-decreasing order. A value equal to the previous one changes nothing,
// and a column that is no longer monotone skips the order check.
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

// fold folds tuples [lo, hi) of c, the page just laid out, in.
func (st *ColumnStats) fold(c *column, lo, hi int) {
	switch {
	case c.kind == record.KindString && c.dict:
		st.foldDict(c.entries, c.codes)
	case c.kind == record.KindString:
		vs := c.strs[lo:hi]
		if !st.seen {
			st.s.first(vs[0])
		}
		for _, v := range vs {
			st.monotone = st.s.next(v, st.monotone)
		}
	case c.kind == record.KindFloat64:
		// next, unrolled: skipping a value equal to the previous one, -0
		// beside +0 among them, changes none of the comparisons after it.
		ws := c.words[lo:hi]
		if !st.seen {
			st.f.first(math.Float64frombits(ws[0]))
		}
		b, monotone := st.f, st.monotone
		for _, w := range ws {
			v := math.Float64frombits(w)
			if v < b.min {
				b.min = v
			}
			if v > b.max {
				b.max = v
			}
			monotone = monotone && !(v < b.prev)
			b.prev = v
		}
		st.f, st.monotone = b, monotone
	default:
		ws := c.words[lo:hi]
		if !st.seen {
			st.i.first(int64(ws[0]))
		}
		b, monotone := st.i, st.monotone
		for _, w := range ws {
			v := int64(w)
			b.min, b.max = min(b.min, v), max(b.max, v)
			monotone = monotone && v >= b.prev
			b.prev = v
		}
		st.i, st.monotone = b, monotone
	}
	st.seen = true
}

// foldDict folds a page's varchar in from its dictionary, whose entries are
// in order of first appearance: the bounds over the entries alone, and the
// order from the codes. The values do not decrease exactly when the codes
// do not, the entries increase, and the first entry is not below the
// previous page's last value.
func (st *ColumnStats) foldDict(entries []string, codes []uint8) {
	b := &st.s
	if !st.seen {
		b.first(entries[0])
	}
	for _, e := range entries {
		if e < b.min {
			b.min = e
		} else if e > b.max {
			b.max = e
		}
	}
	if st.monotone {
		ordered := entries[0] >= b.prev
		for j := 1; ordered && j < len(entries); j++ {
			ordered = entries[j-1] < entries[j]
		}
		for j := 1; ordered && j < len(codes); j++ {
			ordered = codes[j-1] <= codes[j]
		}
		st.monotone = ordered
	}
	b.prev = entries[codes[len(codes)-1]]
}
