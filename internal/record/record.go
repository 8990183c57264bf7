// Package record defines tuple schemas, typed values and the column
// vectors a scan decodes pages into.
//
// The storage engine stores real tuples in heap pages (internal/heap lays
// them out column by column) so that a scan does the work a scan actually
// does: copy a page through the buffer pool, decode its columns, and
// evaluate predicates and aggregates over typed values. That keeps the
// CPU/IO balance of the simulated queries honest — the paper's Q1-like
// queries are CPU-bound precisely because per-tuple expression work
// dominates.
//
// A tuple's row size, EncodedSize, is what heap's page-boundary rule counts:
// 8 bytes per bigint, double or date, and a uvarint length plus the bytes
// per varchar, the size of a self-delimiting little-endian row encoding.
//
// Schemas are flat and fixed per table; nullability is out of scope (the
// TPC-H columns the workload uses are all NOT NULL).
package record

import (
	"fmt"
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
// it was decoded from (see ViewString), so anything that keeps a value
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

// EncodedSize returns t's row size: 8 bytes per fixed-width field and, per
// varchar, its bytes and the uvarint of their count. It checks t against the
// schema.
func EncodedSize(s *Schema, t Tuple) (int, error) {
	if len(t) != s.NumFields() {
		return 0, fmt.Errorf("record: tuple has %d values, schema has %d fields", len(t), s.NumFields())
	}
	n := 0
	for i := range t {
		v, f := &t[i], &s.fields[i]
		if v.Kind != f.Kind {
			return 0, fmt.Errorf("record: field %q kind mismatch", f.Name)
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

// ViewString returns b's bytes as a string without copying them. It is
// sound for a page because nothing writes to a page after it is built: the
// device keeps the slice the builder laid out and never mutates it, the
// buffer pool hands out that same slice, and an injected torn read fails
// with an error and is never delivered. A caller decoding from a buffer it
// does reuse must Clone what it keeps before the next write.
func ViewString(b []byte) string {
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
	return ViewString(a.chunk[start:])
}
