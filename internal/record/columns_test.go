package record

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomSchema draws 1..12 fields of random kinds.
func randomSchema(rng *rand.Rand) *Schema {
	fields := make([]Field, 1+rng.Intn(12))
	for i := range fields {
		fields[i] = Field{Name: fmt.Sprintf("c%d", i), Kind: Kind(rng.Intn(4))}
	}
	return MustSchema(fields...)
}

// randomTuple draws a tuple of s; varchars run from empty to past the
// one-byte length prefix.
func randomTuple(rng *rand.Rand, s *Schema) Tuple {
	t := make(Tuple, s.NumFields())
	for i := range t {
		switch k := s.Field(i).Kind; k {
		case KindFloat64:
			t[i] = Float64(rng.NormFloat64())
		case KindString:
			b := make([]byte, rng.Intn(4)*rng.Intn(70))
			rng.Read(b)
			t[i] = String(string(b))
		default:
			t[i] = Value{Kind: k, I: rng.Int63() - rng.Int63()}
		}
	}
	return t
}

// randomOrdinals draws a subset of s's ordinals, sometimes empty, sometimes
// everything, in no order and with repeats.
func randomOrdinals(rng *rand.Rand, s *Schema) []int {
	var ords []int
	for n := rng.Intn(2 * s.NumFields()); n > 0; n-- {
		ords = append(ords, rng.Intn(s.NumFields()))
	}
	return ords
}

// sameValue is == on Values with NaN equal to itself.
func sameValue(a, b Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// checkSelective compares one selective decode of buf with the full decode:
// same outcome and byte count, the requested ordinals equal, typed zeros
// elsewhere.
func checkSelective(t *testing.T, s *Schema, ords []int, dst Tuple, buf []byte) Tuple {
	t.Helper()
	cols, err := SelectColumns(s, ords...)
	if err != nil {
		t.Fatal(err)
	}
	full, fullN, fullErr := Decode(nil, s, buf)
	got, n, err := cols.Decode(dst, buf)
	if (err == nil) != (fullErr == nil) || (err != nil && err.Error() != fullErr.Error()) {
		t.Fatalf("columns %v over %d bytes: error %v, full decode %v", ords, len(buf), err, fullErr)
	}
	if err != nil {
		return nil
	}
	if n != fullN || n > len(buf) {
		t.Fatalf("columns %v consumed %d of %d bytes, full decode %d", ords, n, len(buf), fullN)
	}
	if len(got) != s.NumFields() {
		t.Fatalf("columns %v decoded %d values, schema has %d", ords, len(got), s.NumFields())
	}
	want := make(Tuple, s.NumFields())
	for i := range want {
		want[i] = Value{Kind: s.Field(i).Kind}
	}
	for _, ord := range ords {
		want[ord] = full[ord]
	}
	for i := range want {
		if !sameValue(got[i], want[i]) {
			t.Fatalf("columns %v: field %d = %#v, want %#v", ords, i, got[i], want[i])
		}
	}
	return got
}

// checkVectors decodes the tuples of bufs, laid end to end, into a batch of
// cols: it must hold the full decode of every tuple ahead of the first that
// fails, on the columns of cols, and fail with that tuple's error.
func checkVectors(t *testing.T, cols Columns, bufs ...[]byte) {
	t.Helper()
	var data []byte
	var offsets []int
	for _, b := range bufs {
		offsets = append(offsets, len(data))
		data = append(data, b...)
	}
	var want []Tuple
	var wantErr error
	for _, off := range offsets {
		var row Tuple
		if row, _, wantErr = Decode(nil, cols.Schema(), data[off:]); wantErr != nil {
			break
		}
		want = append(want, row)
	}
	var v Vectors
	v.Reset(cols)
	err := v.AppendAt(data, offsets)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("vectors of %d tuples: error %v, full decode %v", len(bufs), err, wantErr)
	}
	if v.Len() != len(want) {
		t.Fatalf("vectors hold %d rows, want %d", v.Len(), len(want))
	}
	for r, row := range want {
		for ord := range row {
			if !cols.Reads(ord) {
				continue
			}
			if got := v.Value(ord, r); !sameValue(got, row[ord]) {
				t.Fatalf("vectors row %d field %d = %#v, want %#v", r, ord, got, row[ord])
			}
		}
	}
}

// TestSelectiveDecodeMatchesFull is the differential test of the decoder
// core: over random schemas, tuples and column sets a selective decode agrees
// with the full one — on a fresh destination and on the reused `scratch = t`
// form — and at every truncation point of the buffer both fail with the same
// error. So does a decode of several tuples into column vectors, whose last
// tuple is cut short.
func TestSelectiveDecodeMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 300; round++ {
		s := randomSchema(rng)
		ords := randomOrdinals(rng, s)
		buf, err := Encode(nil, s, randomTuple(rng, s))
		if err != nil {
			t.Fatal(err)
		}
		scratch := checkSelective(t, s, ords, nil, buf)
		cols, err := SelectColumns(s, ords...)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(buf); cut++ {
			checkSelective(t, s, ords, nil, buf[:cut:cut])
			checkVectors(t, cols, buf, buf[:cut])
		}
		// The tuple a column set returned goes back in as dst: unrequested
		// fields must still read as zeros and requested ones be overwritten.
		for reuse := 0; reuse < 3; reuse++ {
			next, err := Encode(nil, s, randomTuple(rng, s))
			if err != nil {
				t.Fatal(err)
			}
			scratch = checkSelective(t, s, ords, scratch, next)
			checkVectors(t, cols, buf, next, buf)
			checkVectors(t, AllColumns(s), next, buf)
		}
	}
}

func TestSelectColumnsValidation(t *testing.T) {
	s := testSchema(t)
	for _, ord := range []int{-1, s.NumFields()} {
		if _, err := SelectColumns(s, 0, ord); err == nil {
			t.Errorf("ordinal %d accepted", ord)
		}
	}
	if got := AllColumns(s).Schema(); got != s {
		t.Error("AllColumns lost its schema")
	}
}

// TestColumnSetsDoNotAllocate: a column set is a schema pointer and a mask,
// so compiling one per query, by ordinal or by name, costs nothing on the heap.
func TestColumnSetsDoNotAllocate(t *testing.T) {
	s := testSchema(t)
	ords := []int{3, 0, 3}
	names := []string{"id", "comment"}
	var c Columns
	if got := testing.AllocsPerRun(100, func() {
		a, err := SelectColumns(s, ords...)
		b, err2 := SelectNamed(s, names...)
		if err != nil || err2 != nil {
			t.Fatal(err, err2)
		}
		c = a.Union(b).With(1)
	}); got != 0 {
		t.Errorf("building a column set allocates %v times, want 0", got)
	}
	for ord := 0; ord < s.NumFields(); ord++ {
		if !c.Reads(ord) {
			t.Errorf("union of {0, 3}, {id, comment} and 1 does not read field %d", ord)
		}
	}
	if _, err := SelectNamed(s, "id", "nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

// TestWideSchemaReadsEverything: past 64 fields the mask has no room, so any
// set of such a schema decodes every field.
func TestWideSchemaReadsEverything(t *testing.T) {
	fields := make([]Field, 70)
	row := make(Tuple, len(fields))
	for i := range fields {
		fields[i] = Field{Name: fmt.Sprintf("c%d", i), Kind: KindInt64}
		row[i] = Int64(int64(i + 1))
	}
	s := MustSchema(fields...)
	cols, err := SelectColumns(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := Encode(nil, s, row)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := cols.Decode(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != row[i] || !cols.Reads(i) {
			t.Fatalf("field %d = %#v (read: %v), want %#v", i, v, cols.Reads(i), row[i])
		}
	}
}

// TestDecodeHugeVarcharLength: a length prefix near 2^64 used to wrap the
// bounds check negative and panic in the slice expression.
func TestDecodeHugeVarcharLength(t *testing.T) {
	s := MustSchema(Field{"s", KindString})
	buf := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 'x'}
	if _, _, err := Decode(nil, s, buf); err == nil || !strings.Contains(err.Error(), "truncated varchar") {
		t.Errorf("decode of a 2^64-1 byte varchar: %v", err)
	}
}

// TestCloneOwnsItsBytes: a decoded varchar views the buffer, its Clone does
// not.
func TestCloneOwnsItsBytes(t *testing.T) {
	s := testSchema(t)
	buf, _ := Encode(nil, s, Tuple{Int64(1), Float64(2), String("kept"), Date(3)})
	view, _, err := Decode(nil, s, buf)
	if err != nil {
		t.Fatal(err)
	}
	kept := view.Clone()
	for i := range buf {
		buf[i] = 0xFF
	}
	if kept[2].S != "kept" || kept[0] != Int64(1) || kept[3] != Date(3) {
		t.Errorf("clone changed with the buffer: %#v", kept)
	}
	if view[2].S == "kept" {
		t.Error("decoded varchar is a copy, want a view into the buffer")
	}
}

// TestArenaClonesOwnTheirBytes: an arena clone survives the string it was
// cloned from being overwritten, and later clones do not overwrite it.
func TestArenaClonesOwnTheirBytes(t *testing.T) {
	var a Arena
	buf := []byte("abcdefgh")
	var kept []string
	for i := 0; i < 100; i++ { // several chunks
		kept = append(kept, a.Clone(viewString(buf)))
		buf[0]++
	}
	long := strings.Repeat("x", 3*arenaChunk)
	if got := a.Clone(long); got != long {
		t.Errorf("long clone %q", got)
	}
	for i, s := range kept {
		if want := string([]byte{byte('a' + i)}) + "bcdefgh"; s != want {
			t.Errorf("clone %d = %q, want %q", i, s, want)
		}
	}
	if a.Clone("") != "" {
		t.Error("empty clone not empty")
	}
}

// FuzzDecodeColumns feeds arbitrary bytes to the decoder under an arbitrary
// schema and column set. It must never panic, never consume or view bytes
// past len(buf), and agree with the full decode: same error, same byte
// count, same values on the requested columns. A decode of the bytes twice
// over into column vectors agrees with it too.
func FuzzDecodeColumns(f *testing.F) {
	s := MustSchema(Field{"a", KindInt64}, Field{"b", KindString}, Field{"c", KindFloat64}, Field{"d", KindString})
	good, _ := Encode(nil, s, Tuple{Int64(7), String("seven"), Float64(7.5), String(strings.Repeat("x", 200))})
	f.Add([]byte{0, 2, 1, 2}, good, uint16(0b1010))
	f.Add([]byte{0, 2, 1, 2}, good[:len(good)-1], uint16(0xFFFF))
	f.Add([]byte{2}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint16(1))
	f.Add([]byte{3, 3, 0}, []byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, kinds, page []byte, mask uint16) {
		if len(kinds) == 0 {
			return
		}
		if len(kinds) > 16 {
			kinds = kinds[:16]
		}
		fields := make([]Field, len(kinds))
		var ords []int
		for i, k := range kinds {
			fields[i] = Field{Name: fmt.Sprintf("c%d", i), Kind: Kind(k % 4)}
			if mask&(1<<i) != 0 {
				ords = append(ords, i)
			}
		}
		s := MustSchema(fields...)
		buf := append([]byte(nil), page...)[:len(page):len(page)]
		got := checkSelective(t, s, ords, nil, buf)
		cols, _ := SelectColumns(s, ords...)
		checkVectors(t, cols, buf, buf)
		if got == nil {
			return
		}
		// Every varchar is a view inside buf: poisoning buf poisons it.
		for i := range buf {
			buf[i] = 0xFF
		}
		for i, v := range got {
			if strings.Trim(v.S, "\xff") != "" {
				t.Fatalf("field %d views bytes outside the buffer: %q", i, v.S)
			}
		}
	})
}
