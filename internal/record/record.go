// Package record defines tuple schemas and a compact binary tuple codec.
//
// The storage engine stores real encoded tuples in heap pages so that a scan
// does the work a scan actually does: copy a page through the buffer pool,
// walk its slot directory, decode tuples, and evaluate predicates over typed
// values. That keeps the CPU/IO balance of the simulated queries honest —
// the paper's Q1-like queries are CPU-bound precisely because per-tuple
// expression work dominates.
//
// The encoding is little-endian and self-delimiting per field:
//
//	int64   -> 8 bytes
//	float64 -> 8 bytes (IEEE 754 bits)
//	date    -> 8 bytes (days since epoch, as int64)
//	string  -> uvarint length + bytes
//
// Schemas are flat and fixed per table; nullability is out of scope (the
// TPC-H columns the workload uses are all NOT NULL).
package record

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"unsafe"
)

// Kind enumerates field types.
type Kind int

// Supported field kinds.
const (
	KindInt64 Kind = iota
	KindFloat64
	KindString
	KindDate // stored as days since an arbitrary epoch
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt64:
		return "bigint"
	case KindFloat64:
		return "double"
	case KindString:
		return "varchar"
	case KindDate:
		return "date"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Valid reports whether k is a defined kind.
func (k Kind) Valid() bool { return k >= KindInt64 && k <= KindDate }

// Field is one column of a schema.
type Field struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of fields.
type Schema struct {
	fields []Field
	index  map[string]int
	// fixed counts the fields ahead of the first varchar, at most 64. They
	// are all 8 bytes wide, so field i < fixed sits at byte 8*i of every
	// tuple.
	fixed int
}

// NewSchema builds a schema from fields. Field names must be unique and
// non-empty, and kinds valid.
func NewSchema(fields ...Field) (*Schema, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("record: empty schema")
	}
	s := &Schema{fields: append([]Field(nil), fields...), index: make(map[string]int, len(fields))}
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("record: field %d has empty name", i)
		}
		if !f.Kind.Valid() {
			return nil, fmt.Errorf("record: field %q has invalid kind %d", f.Name, f.Kind)
		}
		if _, dup := s.index[f.Name]; dup {
			return nil, fmt.Errorf("record: duplicate field name %q", f.Name)
		}
		s.index[f.Name] = i
	}
	for s.fixed < min(len(fields), 64) && fields[s.fixed].Kind != KindString {
		s.fixed++
	}
	return s, nil
}

// MustSchema is NewSchema for known-good definitions; it panics on error.
func MustSchema(fields ...Field) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumFields returns the column count.
func (s *Schema) NumFields() int { return len(s.fields) }

// Field returns the i-th field.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Ordinal returns the position of the named field, or an error.
func (s *Schema) Ordinal(name string) (int, error) {
	i, ok := s.index[name]
	if !ok {
		return 0, fmt.Errorf("record: no field %q in schema", name)
	}
	return i, nil
}

// MustOrdinal is Ordinal for known-present fields; it panics on error.
func (s *Schema) MustOrdinal(name string) int {
	i, err := s.Ordinal(name)
	if err != nil {
		panic(err)
	}
	return i
}

// String renders the schema as "(name type, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", f.Name, f.Kind)
	}
	b.WriteByte(')')
	return b.String()
}

// Value is a dynamically typed field value. Exactly the member selected by
// Kind is meaningful.
type Value struct {
	Kind Kind
	I    int64 // KindInt64 and KindDate
	F    float64
	S    string
}

// Int64 returns a bigint value.
func Int64(v int64) Value { return Value{Kind: KindInt64, I: v} }

// Float64 returns a double value.
func Float64(v float64) Value { return Value{Kind: KindFloat64, F: v} }

// String returns a varchar value.
func String(v string) Value { return Value{Kind: KindString, S: v} }

// Date returns a date value expressed as days since the epoch.
func Date(days int64) Value { return Value{Kind: KindDate, I: days} }

// Compare orders two values of the same kind: -1, 0, or +1. Comparing
// different kinds panics; the executor only compares like with like.
func Compare(a, b Value) int {
	if a.Kind != b.Kind {
		panic(fmt.Sprintf("record: comparing %v with %v", a.Kind, b.Kind))
	}
	switch a.Kind {
	case KindInt64, KindDate:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	case KindFloat64:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
		return 0
	case KindString:
		return strings.Compare(a.S, b.S)
	default:
		panic(fmt.Sprintf("record: comparing invalid kind %d", a.Kind))
	}
}

// GoString renders the value for debugging.
func (v Value) GoString() string {
	switch v.Kind {
	case KindInt64:
		return fmt.Sprintf("%d", v.I)
	case KindDate:
		return fmt.Sprintf("date(%d)", v.I)
	case KindFloat64:
		return fmt.Sprintf("%g", v.F)
	case KindString:
		return fmt.Sprintf("%q", v.S)
	default:
		return fmt.Sprintf("Value{kind %d}", v.Kind)
	}
}

// Tuple is one row: values in schema order.
type Tuple []Value

// Clone returns v owning its bytes: a decoded varchar is a view into the page
// it was decoded from (see Columns.Decode), so anything that keeps a value
// past the decoder's next call, or past the page, clones it first.
func (v Value) Clone() Value {
	if v.Kind == KindString {
		v.S = strings.Clone(v.S)
	}
	return v
}

// Clone returns a copy of t that owns its backing array and its varchars.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	for i, v := range t {
		out[i] = v.Clone()
	}
	return out
}

// Encode appends the tuple's binary form to dst and returns the extended
// slice. The tuple must match the schema.
func Encode(dst []byte, s *Schema, t Tuple) ([]byte, error) {
	if len(t) != s.NumFields() {
		return nil, fmt.Errorf("record: tuple has %d values, schema has %d fields", len(t), s.NumFields())
	}
	for i, v := range t {
		want := s.Field(i).Kind
		if v.Kind != want {
			return nil, fmt.Errorf("record: field %q: value kind %v, want %v", s.Field(i).Name, v.Kind, want)
		}
		switch v.Kind {
		case KindInt64, KindDate:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.I))
		case KindFloat64:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
		case KindString:
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		}
	}
	return dst, nil
}

// EncodedSize returns the number of bytes Encode will produce for t.
func EncodedSize(s *Schema, t Tuple) (int, error) {
	if len(t) != s.NumFields() {
		return 0, fmt.Errorf("record: tuple has %d values, schema has %d fields", len(t), s.NumFields())
	}
	n := 0
	for i, v := range t {
		if v.Kind != s.Field(i).Kind {
			return 0, fmt.Errorf("record: field %q kind mismatch", s.Field(i).Name)
		}
		switch v.Kind {
		case KindInt64, KindDate, KindFloat64:
			n += 8
		case KindString:
			n += uvarintLen(uint64(len(v.S))) + len(v.S)
		}
	}
	return n, nil
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// Columns is a decode plan: which fields of a schema a query reads. It is a
// value with no heap part — the schema and a bit mask — so building, copying
// and widening one allocates nothing. Ordinals keep their meaning under any
// column set — a decoded tuple always has NumFields values, and a field the
// set leaves out reads as the zero Value of its kind.
//
// A schema wider than 64 fields has no room in the mask: every set of it
// reads every field, which is correct and only slower.
type Columns struct {
	schema *Schema
	mask   uint64 // bit i: field i is read; all ones: every field
}

// AllColumns is the column set that reads every field of s.
func AllColumns(s *Schema) Columns { return Columns{schema: s, mask: ^uint64(0)} }

// SelectColumns compiles the column set that reads the given ordinals of s
// (in any order, repeats allowed).
func SelectColumns(s *Schema, ordinals ...int) (Columns, error) {
	c := Columns{schema: s}
	for _, ord := range ordinals {
		if ord < 0 || ord >= len(s.fields) {
			return Columns{}, fmt.Errorf("record: column ordinal %d out of range [0,%d)", ord, len(s.fields))
		}
		c = c.With(ord)
	}
	return c, nil
}

// SelectNamed is SelectColumns for fields given by name.
func SelectNamed(s *Schema, names ...string) (Columns, error) {
	c := Columns{schema: s}
	for _, name := range names {
		ord, err := s.Ordinal(name)
		if err != nil {
			return Columns{}, err
		}
		c = c.With(ord)
	}
	return c, nil
}

// With returns c widened by field ord, an ordinal of c's schema.
func (c Columns) With(ord int) Columns {
	if len(c.schema.fields) > 64 {
		c.mask = ^uint64(0)
	} else {
		c.mask |= 1 << ord
	}
	return c
}

// Union returns the set that reads what c or o reads; both are sets of the
// same schema.
func (c Columns) Union(o Columns) Columns {
	c.mask |= o.mask
	return c
}

// Reads reports whether the set reads field ord.
func (c Columns) Reads(ord int) bool { return ord >= 64 || c.mask&(1<<ord) != 0 }

// Schema returns the schema the set was compiled for.
func (c Columns) Schema() *Schema { return c.schema }

// Decode parses one tuple from buf and returns it with the number of bytes
// consumed. Every field is bounds-checked and stepped over whether or not the
// set reads it, so the byte count and the error on truncated or malformed
// input do not depend on the set.
//
// dst is either empty — its backing array is reused when it has capacity —
// or a tuple an earlier Decode of this same column set returned, the
// `scratch = t` loop. The second form is what makes a field outside the set
// free: its typed zero is written once, when the tuple is first sized, and
// is not touched again.
//
// Varchars are views into buf, not copies: they are valid for as long as
// buf's bytes are unchanged, and the tuple itself only until it is decoded
// into again. Callers that retain a value Clone it.
func (c Columns) Decode(dst Tuple, buf []byte) (Tuple, int, error) {
	fields := c.schema.fields
	t := dst
	if len(t) != len(fields) {
		if t = t[:0]; cap(t) < len(fields) {
			t = make(Tuple, len(fields))
		}
		t = t[:len(fields)]
		for i := range fields {
			t[i] = Value{Kind: fields[i].Kind}
		}
	}
	i, off := 0, 0
	if fixed := c.schema.fixed; c.mask != ^uint64(0) && 8*fixed <= len(buf) {
		// The whole fixed-width prefix is there: read what is wanted of
		// it at its known offsets and start the walk behind it. (The
		// full decode walks every field: it is what the tests hold a
		// selective decode against.)
		for m := c.mask & (1<<fixed - 1); m != 0; m &= m - 1 {
			ord := bits.TrailingZeros64(m)
			t[ord].setFixed(buf[8*ord:])
		}
		i, off = fixed, 8*fixed
	}
	for ; i < len(fields); i++ {
		if fields[i].Kind != KindString {
			if off+8 > len(buf) {
				_, _, err := c.schema.stepLong(i, buf, off)
				return nil, 0, err
			}
			if c.Reads(i) {
				t[i].setFixed(buf[off:])
			}
			off += 8
			continue
		}
		start, end, ok := stepVarchar(buf, off)
		if !ok {
			var err error
			if start, end, err = c.schema.stepLong(i, buf, off); err != nil {
				return nil, 0, err
			}
		}
		if c.Reads(i) {
			t[i].S = viewString(buf[start:end])
		}
		off = end
	}
	return t, off, nil
}

// stepVarchar is the varchar step of the field walk every decoder shares:
// it bounds-checks a varchar field that starts at buf[off:] and returns
// where its bytes lie in buf, end being where the next field starts. ok is
// false when the field is truncated or malformed, and also when its length
// prefix is longer than one byte: stepLong then finishes the step or says
// what is wrong. (A fixed-width field is 8 bytes, no more to check than
// off+8 <= len(buf). stepVarchar inlines into the decoders' loops; stepLong
// is the rare case.)
func stepVarchar(buf []byte, off int) (start, end int, ok bool) {
	if off < len(buf) && buf[off] < 0x80 {
		start = off + 1
		end = start + int(buf[off])
		return start, end, end <= len(buf)
	}
	return 0, 0, false
}

// stepLong is the step of field i of s that the decoders' fast path refused:
// a truncated fixed-width field, or a varchar stepVarchar refused.
func (s *Schema) stepLong(i int, buf []byte, off int) (start, end int, err error) {
	f := &s.fields[i]
	if f.Kind != KindString {
		return 0, 0, fmt.Errorf("record: truncated %s field %q", f.Kind, f.Name)
	}
	n, vn := binary.Uvarint(buf[off:])
	if vn <= 0 {
		return 0, 0, fmt.Errorf("record: bad varchar length for field %q", f.Name)
	}
	if off += vn; n > uint64(len(buf)-off) {
		return 0, 0, fmt.Errorf("record: truncated varchar field %q", f.Name)
	}
	return off, off + int(n), nil
}

// setFixed loads the 8-byte field at the start of b into v, whose Kind is
// already set and whose other members are zero.
func (v *Value) setFixed(b []byte) {
	u := binary.LittleEndian.Uint64(b)
	if v.Kind == KindFloat64 {
		v.F = math.Float64frombits(u)
	} else {
		v.I = int64(u)
	}
}

// Decode parses one tuple of schema s from buf with every column
// materialized; see Columns.Decode for dst and for the lifetime of varchars.
func Decode(dst Tuple, s *Schema, buf []byte) (Tuple, int, error) {
	return AllColumns(s).Decode(dst, buf)
}

// viewString returns b's bytes as a string without copying them — the only
// unsafe in the codec. It is sound because nothing writes to a page after it
// is built: disk.Device.Write stores a copy and replaces the page's slice
// rather than mutating it, the buffer pool hands out that same slice, and an
// injected torn read fails with an error and is never delivered. A caller
// decoding from a buffer it does reuse must Clone what it keeps before the
// next write.
func viewString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Arena clones varchars into shared chunks, so that keeping many small
// strings costs an allocation per chunk rather than one per string. A clone
// views bytes of its chunk that are never written again — the chunk is only
// appended to, and replaced when full — so it is as immutable as
// strings.Clone's copy, and keeps its chunk alive as long as it is kept. The
// zero Arena is ready. Not safe for concurrent use.
type Arena struct {
	chunk []byte
}

// arenaChunk is the size of an arena's chunks; a longer string gets a chunk
// of its own size.
const arenaChunk = 256

// Clone returns a copy of s that owns its bytes, as strings.Clone does.
func (a *Arena) Clone(s string) string {
	if len(s) == 0 {
		return ""
	}
	if len(s) > cap(a.chunk)-len(a.chunk) {
		a.chunk = make([]byte, 0, max(arenaChunk, len(s)))
	}
	start := len(a.chunk)
	a.chunk = append(a.chunk, s...)
	return viewString(a.chunk[start:])
}
