// Package recordtest keeps the row codec the heap pages were once made of,
// as the oracle tests hold the column-major pages to: heaptest.RefLoad lays
// its reference row pages out with Encode, and the decoded rows of every
// page reader are compared with what Decode reads back from them.
//
// The encoding is little-endian and self-delimiting per field:
//
//	int64   -> 8 bytes
//	float64 -> 8 bytes (IEEE 754 bits)
//	date    -> 8 bytes (days since epoch, as int64)
//	string  -> uvarint length + bytes
//
// record.EncodedSize is the size of this encoding.
package recordtest

import (
	"encoding/binary"
	"fmt"
	"math"

	"scanshare/internal/record"
)

// Encode appends the tuple's binary form to dst and returns the extended
// slice. The tuple must match the schema.
func Encode(dst []byte, s *record.Schema, t record.Tuple) ([]byte, error) {
	if len(t) != s.NumFields() {
		return nil, fmt.Errorf("record: tuple has %d values, schema has %d fields", len(t), s.NumFields())
	}
	for i, v := range t {
		want := s.Field(i).Kind
		if v.Kind != want {
			return nil, fmt.Errorf("record: field %q: value kind %v, want %v", s.Field(i).Name, v.Kind, want)
		}
		switch v.Kind {
		case record.KindInt64, record.KindDate:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.I))
		case record.KindFloat64:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
		case record.KindString:
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		}
	}
	return dst, nil
}

// Decode parses one tuple of schema s from buf with every column
// materialized; see DecodeColumns.
func Decode(dst record.Tuple, s *record.Schema, buf []byte) (record.Tuple, int, error) {
	return DecodeColumns(record.AllColumns(s), dst, buf)
}

// DecodeColumns parses one tuple from buf under column set c and returns it
// with the number of bytes consumed. Every field is bounds-checked and
// stepped over whether or not the set reads it, so the byte count and the
// error on truncated or malformed input do not depend on the set; a field
// the set does not read is the zero Value of its kind.
//
// dst is either empty — its backing array is reused when it has capacity —
// or a tuple an earlier DecodeColumns of this same set returned. Varchars
// are views into buf, valid while buf's bytes are unchanged.
func DecodeColumns(c record.Columns, dst record.Tuple, buf []byte) (record.Tuple, int, error) {
	s := c.Schema()
	t := dst
	if len(t) != s.NumFields() {
		if t = t[:0]; cap(t) < s.NumFields() {
			t = make(record.Tuple, s.NumFields())
		}
		t = t[:s.NumFields()]
	}
	off := 0
	for i := range t {
		f := s.Field(i)
		t[i] = record.Value{Kind: f.Kind}
		if f.Kind != record.KindString {
			if off+8 > len(buf) {
				return nil, 0, fmt.Errorf("record: truncated %s field %q", f.Kind, f.Name)
			}
			if c.Reads(i) {
				u := binary.LittleEndian.Uint64(buf[off:])
				if f.Kind == record.KindFloat64 {
					t[i].F = math.Float64frombits(u)
				} else {
					t[i].I = int64(u)
				}
			}
			off += 8
			continue
		}
		n, vn := binary.Uvarint(buf[off:])
		if vn <= 0 {
			return nil, 0, fmt.Errorf("record: bad varchar length for field %q", f.Name)
		}
		if off += vn; n > uint64(len(buf)-off) {
			return nil, 0, fmt.Errorf("record: truncated varchar field %q", f.Name)
		}
		if c.Reads(i) {
			t[i].S = record.ViewString(buf[off : off+int(n)])
		}
		off += int(n)
	}
	return t, off, nil
}
