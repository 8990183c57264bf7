package record

import (
	"encoding/binary"
	"math"
)

// Vectors is a batch of tuples decoded column by column: for every field of
// its column set, one typed vector — []int64 for bigint and date fields,
// []float64 for doubles, []string for varchars — whose element r is that
// field of the batch's r-th tuple. A field outside the set has no vector.
// Rows are added by AppendAt (from encoded bytes, walking the fields as
// Decode does) or AppendTuple (from a decoded tuple); Reset empties the batch and
// keeps its storage, so a batch reused page after page allocates only while
// it grows.
//
// Varchars are views into the bytes they were decoded from, under Decode's
// rule: valid while those bytes are, and Clone'd by whoever keeps one.
type Vectors struct {
	cols Columns
	n    int // rows in the batch
	cap  int // rows each vector has room for; 0 until the first row
	// The vectors of a kind share one backing, cap rows apiece.
	ints  []int64
	flts  []float64
	strs  []string
	walk  []field // every field, in order: the steps of AppendAt's walk
	fixed []field // the fields the set reads of the fixed-width prefix
}

// field is one step of AppendAt's walk: a field's kind and ordinal, and,
// when the set reads it, which vector of its kind's backing is its and where
// that starts; slot and at are -1 for a field the set does not read.
type field struct {
	kind     Kind
	ord      int
	slot, at int
}

// Reset empties the batch and makes it one of column set cols.
func (v *Vectors) Reset(cols Columns) {
	if cols != v.cols {
		v.cols = cols
		v.cap = 0 // the vectors are laid out again by the next row
	}
	v.n = 0
}

// Len returns the number of rows in the batch.
func (v *Vectors) Len() int { return v.n }

// Int64s returns the vector of bigint or date field ord, which the set reads.
func (v *Vectors) Int64s(ord int) []int64 { return v.ints[v.walk[ord].at:][:v.n] }

// Float64s returns the vector of double field ord, which the set reads.
func (v *Vectors) Float64s(ord int) []float64 { return v.flts[v.walk[ord].at:][:v.n] }

// Strings returns the vector of varchar field ord, which the set reads.
func (v *Vectors) Strings(ord int) []string { return v.strs[v.walk[ord].at:][:v.n] }

// Value returns field ord of row r as a Value; the set reads the field.
func (v *Vectors) Value(ord, r int) Value {
	at := v.walk[ord].at + r
	switch k := v.cols.schema.fields[ord].Kind; k {
	case KindFloat64:
		return Value{Kind: k, F: v.flts[at]}
	case KindString:
		return Value{Kind: k, S: v.strs[at]}
	default:
		return Value{Kind: k, I: v.ints[at]}
	}
}

// Grow makes room for n more rows, so that appending them does not lay the
// vectors out again. It leaves a quarter more room than asked, for the
// next, slightly fuller page.
func (v *Vectors) Grow(n int) {
	if need := v.n + n; need > v.cap {
		v.growTo(max(need+need/4, 2*v.cap))
	}
}

// growTo lays the vectors out with room for newCap rows, keeping the
// batch's rows; for a new column set it first plans the walk.
func (v *Vectors) growTo(newCap int) {
	c := v.cols
	fields := c.schema.fields
	if v.cap == 0 {
		if cap(v.walk) < len(fields) {
			plan := make([]field, len(fields)+c.schema.fixed)
			v.walk, v.fixed = plan[:0:len(fields)], plan[len(fields):len(fields)]
		}
		v.walk, v.fixed = v.walk[:0], v.fixed[:0]
		var slots [KindDate + 1]int
		for ord, f := range fields {
			slot := -1
			if c.Reads(ord) {
				k := f.Kind
				if k == KindDate {
					k = KindInt64 // dates are int64 vectors too
				}
				slot = slots[k]
				slots[k]++
			}
			v.walk = append(v.walk, field{kind: f.Kind, ord: ord, slot: slot})
			if ord < c.schema.fixed && slot >= 0 {
				v.fixed = append(v.fixed, field{kind: f.Kind, ord: ord, slot: slot})
			}
		}
	}
	var ni, nf, ns int
	for _, f := range v.walk {
		if f.slot >= 0 {
			switch f.kind {
			case KindFloat64:
				nf++
			case KindString:
				ns++
			default:
				ni++
			}
		}
	}
	ints, flts, strs := make([]int64, ni*newCap), make([]float64, nf*newCap), make([]string, ns*newCap)
	for _, f := range v.walk {
		if f.slot < 0 || v.n == 0 {
			continue
		}
		switch f.kind {
		case KindFloat64:
			copy(flts[f.slot*newCap:], v.Float64s(f.ord))
		case KindString:
			copy(strs[f.slot*newCap:], v.Strings(f.ord))
		default:
			copy(ints[f.slot*newCap:], v.Int64s(f.ord))
		}
	}
	v.ints, v.flts, v.strs, v.cap = ints, flts, strs, newCap
	for _, fs := range [][]field{v.walk, v.fixed} {
		for i := range fs {
			if fs[i].at = -1; fs[i].slot >= 0 {
				fs[i].at = fs[i].slot * newCap
			}
		}
	}
}

// AppendAt decodes the tuples of data that start at the given offsets, in
// order, and adds the fields of the batch's column set of each as a row.
// Every field is walked and bounds-checked with Decode's steps, so its
// errors are Decode's; on one, the tuples ahead of the failing one stay
// added.
func (v *Vectors) AppendAt(data []byte, offsets []int) error {
	v.Grow(len(offsets))
	first, fixed := v.n, v.cols.schema.fixed
	prefix := v.fixed
	if v.cols.mask == ^uint64(0) {
		prefix = nil // the full column set walks every field, as Decode's does
	}
	// Row by row, walk each tuple and store the fields behind the
	// fixed-width prefix; when the whole prefix is there the walk starts
	// behind it, and what is wanted of it is read afterwards, a column at
	// a time, at its known offsets.
	var err error
rows:
	for j, o := range offsets {
		walk, buf, off, r := v.walk, data[o:], 0, first+j
		if prefix != nil && 8*fixed <= len(buf) {
			walk, off = walk[fixed:], 8*fixed
		}
		for i := range walk {
			f := &walk[i]
			start, end, ok := off, off+8, off+8 <= len(buf)
			if f.kind == KindString {
				start, end, ok = stepVarchar(buf, off)
			}
			if !ok {
				// A truncated or malformed field, or a varchar with a
				// long length prefix: walk the tuple again on the
				// general path, which says which.
				if err = v.walkRow(buf, r, walk); err != nil {
					offsets = offsets[:j]
					break rows
				}
				break
			}
			if f.at >= 0 {
				switch f.kind {
				case KindString:
					v.strs[f.at+r] = viewString(buf[start:end])
				case KindFloat64:
					v.flts[f.at+r] = math.Float64frombits(binary.LittleEndian.Uint64(buf[start:]))
				default:
					v.ints[f.at+r] = int64(binary.LittleEndian.Uint64(buf[start:]))
				}
			}
			off = end
		}
		v.n++
	}
	for _, f := range prefix {
		if f.kind == KindFloat64 {
			xs := v.flts[f.at+first:][:len(offsets)]
			for j, o := range offsets {
				xs[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[o+8*f.ord:]))
			}
		} else {
			xs := v.ints[f.at+first:][:len(offsets)]
			for j, o := range offsets {
				xs[j] = int64(binary.LittleEndian.Uint64(data[o+8*f.ord:]))
			}
		}
	}
	return err
}

// walkRow walks the fields of walk — all of a tuple's, or those behind its
// fixed-width prefix — over buf, the tuple's bytes from the first of them
// on, and stores the ones the set reads as row r.
func (v *Vectors) walkRow(buf []byte, r int, walk []field) error {
	off := 0
	if len(walk) < len(v.walk) {
		off = 8 * v.cols.schema.fixed
	}
	for i := range walk {
		f := &walk[i]
		if f.kind != KindString {
			if off+8 > len(buf) {
				_, _, err := v.cols.schema.stepLong(f.ord, buf, off)
				return err
			}
			if f.at >= 0 {
				u := binary.LittleEndian.Uint64(buf[off:])
				if f.kind == KindFloat64 {
					v.flts[f.at+r] = math.Float64frombits(u)
				} else {
					v.ints[f.at+r] = int64(u)
				}
			}
			off += 8
			continue
		}
		start, end, ok := stepVarchar(buf, off)
		if !ok {
			var err error
			if start, end, err = v.cols.schema.stepLong(f.ord, buf, off); err != nil {
				return err
			}
		}
		if f.at >= 0 {
			v.strs[f.at+r] = viewString(buf[start:end])
		}
		off = end
	}
	return nil
}

// AppendTuple adds the fields of the batch's column set of t, a tuple of its
// schema decoded under a superset of the set, as the next row.
func (v *Vectors) AppendTuple(t Tuple) {
	v.Grow(1)
	r := v.n
	for _, f := range v.walk {
		switch {
		case f.at < 0:
		case f.kind == KindString:
			v.strs[f.at+r] = t[f.ord].S
		case f.kind == KindFloat64:
			v.flts[f.at+r] = t[f.ord].F
		default:
			v.ints[f.at+r] = t[f.ord].I
		}
	}
	v.n++
}
