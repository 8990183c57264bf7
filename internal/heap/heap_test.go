package heap

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"scanshare/internal/disk"
	"scanshare/internal/record"
)

func testDevice() *disk.Device {
	return disk.MustNew(disk.Model{
		SeekTime:        time.Millisecond,
		TransferPerPage: 100 * time.Microsecond,
		PageSize:        512,
	}, 0)
}

func testSchema() *record.Schema {
	return record.MustSchema(
		record.Field{Name: "k", Kind: record.KindInt64},
		record.Field{Name: "v", Kind: record.KindString},
	)
}

func buildTable(t *testing.T, dev *disk.Device, rows int) *Table {
	t.Helper()
	b, err := NewBuilder(dev, "t", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := b.Append(record.Tuple{record.Int64(int64(i)), record.String(fmt.Sprintf("row-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// readAll reads the table back through the device page by page.
func readAll(t *testing.T, tbl *Table, dev *disk.Device) []record.Tuple {
	t.Helper()
	var out []record.Tuple
	for p := 0; p < tbl.NumPages(); p++ {
		pid, err := tbl.PageID(p)
		if err != nil {
			t.Fatal(err)
		}
		buf, _, err := dev.Read(0, pid)
		if err != nil {
			t.Fatal(err)
		}
		v, err := View(tbl.Schema(), buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < v.NumTuples(); i++ {
			tup, err := v.Tuple(nil, i)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, append(record.Tuple(nil), tup...))
		}
	}
	return out
}

func TestBuildAndReadBack(t *testing.T) {
	dev := testDevice()
	tbl := buildTable(t, dev, 100)
	if tbl.NumTuples() != 100 {
		t.Errorf("NumTuples = %d", tbl.NumTuples())
	}
	if tbl.NumPages() < 2 {
		t.Errorf("expected multiple pages for 100 rows of 512-byte pages, got %d", tbl.NumPages())
	}
	rows := readAll(t, tbl, dev)
	if len(rows) != 100 {
		t.Fatalf("read back %d rows", len(rows))
	}
	for i, row := range rows {
		if row[0].I != int64(i) || row[1].S != fmt.Sprintf("row-%d", i) {
			t.Fatalf("row %d = %#v", i, row)
		}
	}
}

func TestTableIsContiguousOnDevice(t *testing.T) {
	dev := testDevice()
	a := buildTable(t, dev, 50)
	b := buildTable(t, dev, 50)
	if a.FirstPage()+disk.PageID(a.NumPages()) != b.FirstPage() {
		t.Errorf("tables not contiguous: a=[%d,+%d), b starts at %d",
			a.FirstPage(), a.NumPages(), b.FirstPage())
	}
}

func TestPageIDBounds(t *testing.T) {
	dev := testDevice()
	tbl := buildTable(t, dev, 10)
	if _, err := tbl.PageID(-1); err == nil {
		t.Error("negative page accepted")
	}
	if _, err := tbl.PageID(tbl.NumPages()); err == nil {
		t.Error("out-of-range page accepted")
	}
	pid, err := tbl.PageID(0)
	if err != nil || pid != tbl.FirstPage() {
		t.Errorf("PageID(0) = %d, %v", pid, err)
	}
}

func TestBuilderValidation(t *testing.T) {
	dev := testDevice()
	if _, err := NewBuilder(dev, "", testSchema()); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewBuilder(dev, "t", nil); err == nil {
		t.Error("nil schema accepted")
	}
}

func TestEmptyTableRejected(t *testing.T) {
	b, _ := NewBuilder(testDevice(), "t", testSchema())
	if _, err := b.Finish(); err == nil {
		t.Error("empty table accepted")
	}
}

func TestOversizedTupleRejected(t *testing.T) {
	b, _ := NewBuilder(testDevice(), "t", testSchema())
	huge := record.Tuple{record.Int64(1), record.String(string(make([]byte, 600)))}
	if err := b.Append(huge); err == nil {
		t.Error("tuple larger than a page accepted")
	}
}

func TestAppendAfterFinishRejected(t *testing.T) {
	dev := testDevice()
	b, _ := NewBuilder(dev, "t", testSchema())
	b.Append(record.Tuple{record.Int64(1), record.String("x")})
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(record.Tuple{record.Int64(2), record.String("y")}); err == nil {
		t.Error("Append after Finish accepted")
	}
	if _, err := b.Finish(); err == nil {
		t.Error("double Finish accepted")
	}
}

func TestAppendWrongSchemaRejected(t *testing.T) {
	b, _ := NewBuilder(testDevice(), "t", testSchema())
	if err := b.Append(record.Tuple{record.String("wrong"), record.String("x")}); err == nil {
		t.Error("mis-typed tuple accepted")
	}
}

func TestViewRejectsCorruptPages(t *testing.T) {
	s := testSchema()
	if _, err := View(s, []byte{}); err == nil {
		t.Error("empty page accepted")
	}
	// Claims 100 tuples but has no column offsets.
	if _, err := View(s, []byte{100, 0, 0}); err == nil {
		t.Error("page without column offsets accepted")
	}
	// Offsets that go back, a bigint column short of its tuple.
	for _, page := range [][]byte{
		{1, 0, 6, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{1, 0, 6, 0, 13, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		if _, err := View(s, page); err == nil {
			t.Errorf("corrupt page %v accepted", page)
		}
	}
	// A dictionary larger than its column: the view touches no varchar,
	// a read of one fails.
	v, err := View(s, []byte{1, 0, 6, 0, 14, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Tuple(nil, 0); err == nil {
		t.Error("a tuple of a malformed varchar column read")
	}
	if err := v.ForEach(func(record.Tuple) error { return nil }); err == nil {
		t.Error("a page of a malformed varchar column read")
	}
}

func TestViewTupleBounds(t *testing.T) {
	dev := testDevice()
	tbl := buildTable(t, dev, 5)
	buf, _, _ := dev.Read(0, tbl.FirstPage())
	v, err := View(tbl.Schema(), buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Tuple(nil, -1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := v.Tuple(nil, v.NumTuples()); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestForEach(t *testing.T) {
	dev := testDevice()
	tbl := buildTable(t, dev, 30)
	buf, _, _ := dev.Read(0, tbl.FirstPage())
	v, _ := View(tbl.Schema(), buf)
	var keys []int64
	err := v.ForEach(func(tup record.Tuple) error {
		keys = append(keys, tup[0].I)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != v.NumTuples() {
		t.Fatalf("ForEach visited %d of %d", len(keys), v.NumTuples())
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[i-1]+1 {
			t.Fatalf("keys not in insertion order: %v", keys)
		}
	}
}

func TestForEachPropagatesError(t *testing.T) {
	dev := testDevice()
	tbl := buildTable(t, dev, 10)
	buf, _, _ := dev.Read(0, tbl.FirstPage())
	v, _ := View(tbl.Schema(), buf)
	calls := 0
	err := v.ForEach(func(record.Tuple) error {
		calls++
		return fmt.Errorf("stop")
	})
	if err == nil || calls != 1 {
		t.Errorf("err=%v calls=%d, want error after 1 call", err, calls)
	}
}

// TestRoundTripProperty builds tables from random tuples and verifies a full
// readback matches, regardless of how tuples pack into pages.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(200)
		dev := testDevice()
		b, _ := NewBuilder(dev, "t", testSchema())
		want := make([]record.Tuple, 0, rows)
		for i := 0; i < rows; i++ {
			s := make([]byte, rng.Intn(40))
			for j := range s {
				s[j] = byte('a' + rng.Intn(26))
			}
			tup := record.Tuple{record.Int64(rng.Int63()), record.String(string(s))}
			if err := b.Append(tup); err != nil {
				return false
			}
			want = append(want, tup)
		}
		tbl, err := b.Finish()
		if err != nil || tbl.NumTuples() != int64(rows) {
			return false
		}
		var got []record.Tuple
		for p := 0; p < tbl.NumPages(); p++ {
			pid, _ := tbl.PageID(p)
			buf, _, err := dev.Read(0, pid)
			if err != nil {
				return false
			}
			v, err := View(tbl.Schema(), buf)
			if err != nil {
				return false
			}
			if err := v.ForEach(func(tup record.Tuple) error {
				got = append(got, append(record.Tuple(nil), tup...))
				return nil
			}); err != nil {
				return false
			}
		}
		return reflect.DeepEqual(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
