package record

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// Vectors is a batch of tuples held column by column: for every field of its
// column set, one typed vector — []int64 for bigint and date fields,
// []float64 for doubles, []string for varchars — whose element r is that
// field of the batch's r-th tuple. A field outside the set has no vector.
//
// A page reader adds rows a column at a time: Extend makes room for them,
// and each read field is then filled, by SetWords from 8-byte words, by
// SetCodes from a dictionary and one code per row, or by writing its vector
// directly. AppendTuple adds one row from a decoded tuple. Reset empties the
// batch and keeps its storage, so a batch reused page after page allocates
// only while it grows.
//
// A varchar filled by SetCodes keeps its codes while the batch holds rows of
// one dictionary only (see Codes), so that a consumer can tell the batch's
// distinct values apart without comparing strings. Varchars are views into
// the bytes they were read from: valid while those bytes are, and Clone'd by
// whoever keeps one.
type Vectors struct {
	cols Columns
	n    int // rows in the batch
	cap  int // rows each vector has room for; 0 until the first row
	// The vectors of a kind share one backing, cap rows apiece; a varchar's
	// codes sit at the same place in codes as its strings in strs, and its
	// dictionary storage behind the varchars' vectors in strs. ints, flts
	// and codes are views of one allocation.
	ints   []int64
	flts   []float64
	strs   []string
	codes  []uint8
	fields []field // one per field of the schema, in order
	nstr   int     // varchar vectors
}

// maxDict is the largest dictionary Dict has room for.
const maxDict = 256

// field is one field's place in the batch: its kind, and, when the set reads
// it, which vector of its kind's backing is its and where that starts; slot
// and at are -1 for a field the set does not read. A varchar's dict is its
// dictionary storage; coded is set while its codes index dict, and pending
// while its strings are still only codes, to be looked up when asked for.
type field struct {
	kind     Kind
	slot, at int
	dict     []string
	coded    bool
	pending  bool
}

// Reset empties the batch and makes it one of column set cols.
func (v *Vectors) Reset(cols Columns) {
	if cols != v.cols {
		v.cols = cols
		v.cap = 0 // the vectors are laid out again by the next row
	}
	v.n = 0
	for i := range v.fields {
		v.fields[i].coded, v.fields[i].pending = false, false
	}
}

// uncode looks up the strings of every varchar still pending and marks none
// coded: the batch's next rows are not of its dictionaries.
func (v *Vectors) uncode() {
	for i := range v.fields {
		f := &v.fields[i]
		v.lookUp(f)
		f.coded = false
	}
}

// lookUp fills the strings of varchar f from its codes if they are pending.
func (v *Vectors) lookUp(f *field) {
	if f.pending {
		strs := v.strs[f.at:][:v.n]
		for r, c := range v.codes[f.at:][:v.n] {
			strs[r] = f.dict[c]
		}
		f.pending = false
	}
}

// Len returns the number of rows in the batch.
func (v *Vectors) Len() int { return v.n }

// Columns returns the batch's column set.
func (v *Vectors) Columns() Columns { return v.cols }

// Int64s returns the vector of bigint or date field ord, which the set reads.
func (v *Vectors) Int64s(ord int) []int64 { return v.ints[v.fields[ord].at:][:v.n] }

// Float64s returns the vector of double field ord, which the set reads.
func (v *Vectors) Float64s(ord int) []float64 { return v.flts[v.fields[ord].at:][:v.n] }

// Strings returns the vector of varchar field ord, which the set reads.
func (v *Vectors) Strings(ord int) []string {
	f := &v.fields[ord]
	v.lookUp(f)
	return v.strs[f.at:][:v.n]
}

// Codes returns the dictionary codes of varchar field ord, which the set
// reads, and the dictionary they index: row r holds dict[codes[r]], so rows
// with equal codes hold equal strings and rows with different codes
// different ones. codes is nil unless every row of the batch was filled by
// SetCodes from one dictionary.
func (v *Vectors) Codes(ord int) (codes []uint8, dict []string) {
	if v.n == 0 {
		return nil, nil
	}
	f := &v.fields[ord]
	if !f.coded {
		return nil, nil
	}
	return v.codes[f.at:][:v.n], f.dict
}

// Value returns field ord of row r as a Value; the set reads the field.
func (v *Vectors) Value(ord, r int) Value {
	f := &v.fields[ord]
	switch f.kind {
	case KindFloat64:
		return Value{Kind: f.kind, F: v.flts[f.at+r]}
	case KindString:
		return Value{Kind: f.kind, S: v.str(f, r)}
	default:
		return Value{Kind: f.kind, I: v.ints[f.at+r]}
	}
}

// str returns row r of varchar f.
func (v *Vectors) str(f *field, r int) string {
	if f.pending {
		return f.dict[v.codes[f.at+r]]
	}
	return v.strs[f.at+r]
}

// Row returns row r as a tuple of the schema's width, built in dst's backing
// array when it has room: the fields of the set hold the row's values, the
// others the zero Value of their kind. Its varchars are the batch's.
func (v *Vectors) Row(dst Tuple, r int) Tuple {
	fields := v.cols.schema.fields
	t := dst[:0]
	if cap(t) < len(fields) {
		t = make(Tuple, 0, len(fields))
	}
	t = t[:len(fields)]
	for ord := range v.fields {
		f := &v.fields[ord]
		switch {
		case f.at < 0:
			t[ord] = Value{Kind: f.kind}
		case f.kind == KindFloat64:
			t[ord] = Value{Kind: f.kind, F: v.flts[f.at+r]}
		case f.kind == KindString:
			t[ord] = Value{Kind: f.kind, S: v.str(f, r)}
		default:
			t[ord] = Value{Kind: f.kind, I: v.ints[f.at+r]}
		}
	}
	return t
}

// grow makes room for n more rows. It leaves a quarter more room than
// asked, for the next, slightly fuller page.
func (v *Vectors) grow(n int) {
	if need := v.n + n; need > v.cap {
		v.growTo(max(need+need/4, 2*v.cap))
	}
}

// growTo lays the vectors out with room for newCap rows, keeping the
// batch's rows; for a new column set it first assigns the vectors.
func (v *Vectors) growTo(newCap int) {
	c := v.cols
	if v.cap == 0 {
		fields := c.schema.fields
		if cap(v.fields) < len(fields) {
			v.fields = make([]field, len(fields))
		}
		v.fields = v.fields[:len(fields)]
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
			v.fields[ord] = field{kind: f.Kind, slot: slot}
		}
		v.nstr = slots[KindString]
	}
	var ni, nf int
	for _, f := range v.fields {
		switch {
		case f.slot < 0, f.kind == KindString:
		case f.kind == KindFloat64:
			nf++
		default:
			ni++
		}
	}
	ns := v.nstr
	words := make([]uint64, (ni+nf)*newCap+(ns*newCap+7)/8)
	ints := view[int64](words, 0, ni*newCap)
	flts := view[float64](words, ni*newCap, nf*newCap)
	codes := view[uint8](words, (ni+nf)*newCap, ns*newCap)
	strs := make([]string, ns*(newCap+maxDict))
	for ord, f := range v.fields {
		if f.slot < 0 || v.n == 0 {
			continue
		}
		switch f.kind {
		case KindFloat64:
			copy(flts[f.slot*newCap:], v.Float64s(ord))
		case KindString:
			copy(strs[f.slot*newCap:], v.strs[f.at:][:v.n])
			copy(codes[f.slot*newCap:], v.codes[f.at:][:v.n])
		default:
			copy(ints[f.slot*newCap:], v.Int64s(ord))
		}
	}
	v.ints, v.flts, v.strs, v.codes, v.cap = ints, flts, strs, codes, newCap
	for i := range v.fields {
		f := &v.fields[i]
		if f.at = -1; f.slot >= 0 {
			f.at = f.slot * newCap
		}
		if f.kind == KindString && f.slot >= 0 {
			dict := strs[ns*newCap+f.slot*maxDict:][:len(f.dict):maxDict]
			copy(dict, f.dict)
			f.dict = dict
		}
	}
}

// view returns n elements of type T over words from word at on: the
// backings of the fixed-width vectors and the codes, which hold no
// pointers, share one allocation.
func view[T int64 | float64 | uint8](words []uint64, at, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&words[at])), n)
}

// Extend adds m rows to the batch and returns the first one's index. Every
// field of the set must then be filled for them, by SetWords, SetCodes or a
// write to its vector: until it is, a field holds whatever the storage held
// before.
func (v *Vectors) Extend(m int) (from int) {
	if v.n > 0 {
		v.uncode() // the new rows are of another dictionary, or of none
	}
	v.grow(m)
	from = v.n
	v.n += m
	return from
}

// SetWords fills bigint, double or date field ord, which the set reads, of
// rows from, from+1, … from words, one little-endian 8-byte word per row:
// on a little-endian machine a copy of the bytes.
func (v *Vectors) SetWords(ord, from int, words []byte) {
	f := &v.fields[ord]
	m := len(words) / 8
	if m == 0 {
		return
	}
	var dst []byte
	if f.kind == KindFloat64 {
		dst = unsafe.Slice((*byte)(unsafe.Pointer(&v.flts[f.at+from])), 8*m)
	} else {
		dst = unsafe.Slice((*byte)(unsafe.Pointer(&v.ints[f.at+from])), 8*m)
	}
	copy(dst, words)
	if bigEndian {
		xs := v.ints[f.at+from:][:m]
		if f.kind == KindFloat64 {
			xs = unsafe.Slice((*int64)(unsafe.Pointer(&v.flts[f.at+from])), m)
		}
		for r, x := range xs {
			xs[r] = int64(bits.ReverseBytes64(uint64(x)))
		}
	}
}

// bigEndian reports whether the machine stores words most significant byte
// first, so that SetWords must swap the bytes it copies.
var bigEndian = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// Dict returns storage for the dictionary of size entries that the next
// SetCodes of varchar field ord, which the set reads, decodes against; the
// caller fills it. size is at most 256.
func (v *Vectors) Dict(ord, size int) []string {
	f := &v.fields[ord]
	f.dict = f.dict[:size]
	return f.dict
}

// SetCodes fills varchar field ord, which the set reads, of rows from,
// from+1, … with the entries of the dictionary Dict last returned for it
// that codes name, one code per row. It reports false, and leaves the
// field's rows unset, when a code is not below the dictionary's size. The
// strings of a batch's first rows are looked up only when asked for.
func (v *Vectors) SetCodes(ord, from int, codes []byte) bool {
	f := &v.fields[ord]
	top := uint8(0)
	for _, c := range codes {
		top = max(top, c)
	}
	if len(codes) > 0 && int(top) >= len(f.dict) {
		return false
	}
	copy(v.codes[f.at+from:], codes)
	if from == 0 {
		f.coded, f.pending = true, true
		return true
	}
	strs := v.strs[f.at+from:][:len(codes)]
	for r, c := range codes {
		strs[r] = f.dict[c]
	}
	return true
}

// Keep keeps the batch's rows rows, which ascend, and drops the others:
// row j becomes what row rows[j] was.
func (v *Vectors) Keep(rows []int32) {
	for _, f := range v.fields {
		switch {
		case f.at < 0:
		case f.kind == KindFloat64:
			xs := v.flts[f.at:]
			for j, r := range rows {
				xs[j] = xs[r]
			}
		case f.kind == KindString:
			xs, cs := v.strs[f.at:], v.codes[f.at:]
			for j, r := range rows {
				cs[j] = cs[r]
			}
			if !f.pending {
				for j, r := range rows {
					xs[j] = xs[r]
				}
			}
		default:
			xs := v.ints[f.at:]
			for j, r := range rows {
				xs[j] = xs[r]
			}
		}
	}
	v.n = len(rows)
}

// AppendTuple adds the fields of the batch's column set of t, a tuple of its
// schema, as the next row.
func (v *Vectors) AppendTuple(t Tuple) {
	r := v.Extend(1)
	v.uncode() // a tuple has no codes
	for ord, f := range v.fields {
		switch {
		case f.at < 0:
		case f.kind == KindString:
			v.strs[f.at+r] = t[ord].S
		case f.kind == KindFloat64:
			v.flts[f.at+r] = t[ord].F
		default:
			v.ints[f.at+r] = t[ord].I
		}
	}
}
