package record_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"scanshare/internal/record"
	"scanshare/internal/record/recordtest"
)

// The row codec lives in recordtest, as the oracle of the column-major heap
// pages; these are its tests, with record.EncodedSize, which measures it.

func testSchema(t *testing.T) *record.Schema {
	t.Helper()
	return record.MustSchema(
		record.Field{Name: "id", Kind: record.KindInt64},
		record.Field{Name: "price", Kind: record.KindFloat64},
		record.Field{Name: "comment", Kind: record.KindString},
		record.Field{Name: "shipdate", Kind: record.KindDate},
	)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSchema(t)
	in := record.Tuple{record.Int64(-42), record.Float64(3.25), record.String("hello, página"), record.Date(9131)}
	buf, err := recordtest.Encode(nil, s, in)
	if err != nil {
		t.Fatal(err)
	}
	size, err := record.EncodedSize(s, in)
	if err != nil {
		t.Fatal(err)
	}
	if size != len(buf) {
		t.Errorf("record.EncodedSize = %d, Encode produced %d bytes", size, len(buf))
	}
	out, n, err := recordtest.Decode(nil, s, buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("Decode consumed %d of %d bytes", n, len(buf))
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %#v\nout: %#v", in, out)
	}
}

func TestEncodeValidatesArityAndKinds(t *testing.T) {
	s := testSchema(t)
	if _, err := recordtest.Encode(nil, s, record.Tuple{record.Int64(1)}); err == nil {
		t.Error("short tuple accepted")
	}
	bad := record.Tuple{record.String("x"), record.Float64(1), record.String("y"), record.Date(0)}
	if _, err := recordtest.Encode(nil, s, bad); err == nil {
		t.Error("kind mismatch accepted")
	}
	if _, err := record.EncodedSize(s, record.Tuple{record.Int64(1)}); err == nil {
		t.Error("record.EncodedSize accepted short tuple")
	}
	if _, err := record.EncodedSize(s, bad); err == nil {
		t.Error("record.EncodedSize accepted kind mismatch")
	}
}

func TestDecodeTruncated(t *testing.T) {
	s := testSchema(t)
	in := record.Tuple{record.Int64(7), record.Float64(1.5), record.String("abcdef"), record.Date(100)}
	buf, _ := recordtest.Encode(nil, s, in)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := recordtest.Decode(nil, s, buf[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(buf))
		}
	}
}

func TestDecodeConsumesExactlyOneTuple(t *testing.T) {
	s := testSchema(t)
	a := record.Tuple{record.Int64(1), record.Float64(2), record.String("first"), record.Date(3)}
	b := record.Tuple{record.Int64(4), record.Float64(5), record.String("second"), record.Date(6)}
	buf, _ := recordtest.Encode(nil, s, a)
	buf, _ = recordtest.Encode(buf, s, b)
	gotA, n, err := recordtest.Decode(nil, s, buf)
	if err != nil {
		t.Fatal(err)
	}
	gotB, _, err := recordtest.Decode(nil, s, buf[n:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotA, a) || !reflect.DeepEqual(gotB, b) {
		t.Error("consecutive decode mismatch")
	}
}

func TestDecodeReusesBuffer(t *testing.T) {
	s := testSchema(t)
	in := record.Tuple{record.Int64(1), record.Float64(2), record.String("x"), record.Date(3)}
	buf, _ := recordtest.Encode(nil, s, in)
	scratch := make(record.Tuple, 0, 8)
	out, _, err := recordtest.Decode(scratch, s, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &scratch[:1][0] {
		t.Error("Decode did not reuse the provided backing array")
	}
}

// TestRoundTripProperty checks Encode/Decode over random tuples, including
// large strings, NaN-adjacent floats, and extreme ints.
func TestRoundTripProperty(t *testing.T) {
	s := testSchema(t)
	f := func(id int64, price float64, comment string, days int64) bool {
		if math.IsNaN(price) {
			price = 0 // NaN != NaN would fail DeepEqual for the wrong reason
		}
		in := record.Tuple{record.Int64(id), record.Float64(price), record.String(comment), record.Date(days)}
		buf, err := recordtest.Encode(nil, s, in)
		if err != nil {
			return false
		}
		out, n, err := recordtest.Decode(nil, s, buf)
		return err == nil && n == len(buf) && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// randomSchema draws 1..12 fields of random kinds.
func randomSchema(rng *rand.Rand) *record.Schema {
	fields := make([]record.Field, 1+rng.Intn(12))
	for i := range fields {
		fields[i] = record.Field{Name: fmt.Sprintf("c%d", i), Kind: record.Kind(rng.Intn(4))}
	}
	return record.MustSchema(fields...)
}

// randomTuple draws a tuple of s; varchars run from empty to past the
// one-byte length prefix.
func randomTuple(rng *rand.Rand, s *record.Schema) record.Tuple {
	t := make(record.Tuple, s.NumFields())
	for i := range t {
		switch k := s.Field(i).Kind; k {
		case record.KindFloat64:
			t[i] = record.Float64(rng.NormFloat64())
		case record.KindString:
			b := make([]byte, rng.Intn(4)*rng.Intn(70))
			rng.Read(b)
			t[i] = record.String(string(b))
		default:
			t[i] = record.Value{Kind: k, I: rng.Int63() - rng.Int63()}
		}
	}
	return t
}

// randomOrdinals draws a subset of s's ordinals, sometimes empty, sometimes
// everything, in no order and with repeats.
func randomOrdinals(rng *rand.Rand, s *record.Schema) []int {
	var ords []int
	for n := rng.Intn(2 * s.NumFields()); n > 0; n-- {
		ords = append(ords, rng.Intn(s.NumFields()))
	}
	return ords
}

// sameValue is == on Values with NaN equal to itself.
func sameValue(a, b record.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// checkSelective compares one selective decode of buf with the full decode:
// same outcome and byte count, the requested ordinals equal, typed zeros
// elsewhere.
func checkSelective(t *testing.T, s *record.Schema, ords []int, dst record.Tuple, buf []byte) record.Tuple {
	t.Helper()
	cols, err := record.SelectColumns(s, ords...)
	if err != nil {
		t.Fatal(err)
	}
	full, fullN, fullErr := recordtest.Decode(nil, s, buf)
	got, n, err := recordtest.DecodeColumns(cols, dst, buf)
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
	want := make(record.Tuple, s.NumFields())
	for i := range want {
		want[i] = record.Value{Kind: s.Field(i).Kind}
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

// checkVectors decodes the tuples of bufs that decode and adds them to a
// batch of cols with AppendTuple: the batch must hold them on the columns of
// cols, as values and as rows with typed zeros elsewhere, and after Keep
// the rows it kept.
func checkVectors(t *testing.T, cols record.Columns, bufs ...[]byte) {
	t.Helper()
	var want []record.Tuple
	for _, b := range bufs {
		if row, _, err := recordtest.Decode(nil, cols.Schema(), b); err == nil {
			want = append(want, row)
		}
	}
	var v record.Vectors
	v.Reset(cols)
	for _, row := range want {
		v.AppendTuple(row)
	}
	check := func(want []record.Tuple) {
		t.Helper()
		if v.Len() != len(want) {
			t.Fatalf("vectors hold %d rows, want %d", v.Len(), len(want))
		}
		for r, row := range want {
			got := v.Row(nil, r)
			for ord := range row {
				wantV := record.Value{Kind: row[ord].Kind}
				if cols.Reads(ord) {
					wantV = row[ord]
					if got := v.Value(ord, r); !sameValue(got, wantV) {
						t.Fatalf("vectors row %d field %d = %#v, want %#v", r, ord, got, wantV)
					}
				}
				if !sameValue(got[ord], wantV) {
					t.Fatalf("vectors row %d as a tuple: field %d = %#v, want %#v", r, ord, got[ord], wantV)
				}
			}
		}
	}
	check(want)
	var rows []int32
	var kept []record.Tuple
	for r := 1; r < len(want); r += 2 {
		rows, kept = append(rows, int32(r)), append(kept, want[r])
	}
	v.Keep(rows)
	check(kept)
}

// TestSelectiveDecodeMatchesFull is the differential test of the row
// decoder: over random schemas, tuples and column sets a selective decode
// agrees with the full one — on a fresh destination and on the reused
// `scratch = t` form — and at every truncation point of the buffer both fail
// with the same error. The tuples that decode go through column vectors
// (AppendTuple, Row, Keep) intact.
func TestSelectiveDecodeMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 300; round++ {
		s := randomSchema(rng)
		ords := randomOrdinals(rng, s)
		buf, err := recordtest.Encode(nil, s, randomTuple(rng, s))
		if err != nil {
			t.Fatal(err)
		}
		scratch := checkSelective(t, s, ords, nil, buf)
		cols, err := record.SelectColumns(s, ords...)
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
			next, err := recordtest.Encode(nil, s, randomTuple(rng, s))
			if err != nil {
				t.Fatal(err)
			}
			scratch = checkSelective(t, s, ords, scratch, next)
			checkVectors(t, cols, buf, next, buf)
			checkVectors(t, record.AllColumns(s), next, buf)
		}
	}
}

// TestWideSchemaReadsEverything: past 64 fields the mask has no room, so any
// set of such a schema decodes every field.
func TestWideSchemaReadsEverything(t *testing.T) {
	fields := make([]record.Field, 70)
	row := make(record.Tuple, len(fields))
	for i := range fields {
		fields[i] = record.Field{Name: fmt.Sprintf("c%d", i), Kind: record.KindInt64}
		row[i] = record.Int64(int64(i + 1))
	}
	s := record.MustSchema(fields...)
	cols, err := record.SelectColumns(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := recordtest.Encode(nil, s, row)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := recordtest.DecodeColumns(cols, nil, buf)
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
	s := record.MustSchema(record.Field{Name: "s", Kind: record.KindString})
	buf := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 'x'}
	if _, _, err := recordtest.Decode(nil, s, buf); err == nil || !strings.Contains(err.Error(), "truncated varchar") {
		t.Errorf("decode of a 2^64-1 byte varchar: %v", err)
	}
}

// TestCloneOwnsItsBytes: a decoded varchar views the buffer, its Clone does
// not.
func TestCloneOwnsItsBytes(t *testing.T) {
	s := testSchema(t)
	buf, _ := recordtest.Encode(nil, s, record.Tuple{record.Int64(1), record.Float64(2), record.String("kept"), record.Date(3)})
	view, _, err := recordtest.Decode(nil, s, buf)
	if err != nil {
		t.Fatal(err)
	}
	kept := view.Clone()
	for i := range buf {
		buf[i] = 0xFF
	}
	if kept[2].S != "kept" || kept[0] != record.Int64(1) || kept[3] != record.Date(3) {
		t.Errorf("clone changed with the buffer: %#v", kept)
	}
	if view[2].S == "kept" {
		t.Error("decoded varchar is a copy, want a view into the buffer")
	}
}

// FuzzDecodeColumns feeds arbitrary bytes to the row decoder, the oracle
// the heap pages are held to, under an arbitrary schema and column set. It
// must never panic, never consume or view bytes past len(buf), and agree
// with the full decode: same error, same byte count, same values on the
// requested columns; the rows it decodes go through column vectors intact.
// (The page reader's fuzzer, in make fuzz, is heap's FuzzDecodePage.)
func FuzzDecodeColumns(f *testing.F) {
	s := record.MustSchema(
		record.Field{Name: "a", Kind: record.KindInt64}, record.Field{Name: "b", Kind: record.KindString},
		record.Field{Name: "c", Kind: record.KindFloat64}, record.Field{Name: "d", Kind: record.KindString})
	good, _ := recordtest.Encode(nil, s, record.Tuple{record.Int64(7), record.String("seven"), record.Float64(7.5), record.String(strings.Repeat("x", 200))})
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
		fields := make([]record.Field, len(kinds))
		var ords []int
		for i, k := range kinds {
			fields[i] = record.Field{Name: fmt.Sprintf("c%d", i), Kind: record.Kind(k % 4)}
			if mask&(1<<i) != 0 {
				ords = append(ords, i)
			}
		}
		s := record.MustSchema(fields...)
		buf := append([]byte(nil), page...)[:len(page):len(page)]
		got := checkSelective(t, s, ords, nil, buf)
		cols, _ := record.SelectColumns(s, ords...)
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
