package disk

import (
	"testing"
	"testing/quick"
	"time"
)

func testModel() Model {
	return Model{SeekTime: 4 * time.Millisecond, TransferPerPage: 200 * time.Microsecond, PageSize: 8192}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		m    Model
		ok   bool
	}{
		{"default", DefaultModel(), true},
		{"negative seek", Model{SeekTime: -1, TransferPerPage: 1, PageSize: 1}, false},
		{"zero transfer", Model{SeekTime: 1, TransferPerPage: 0, PageSize: 1}, false},
		{"zero page size", Model{SeekTime: 1, TransferPerPage: 1, PageSize: 0}, false},
		{"zero seek ok", Model{SeekTime: 0, TransferPerPage: 1, PageSize: 1}, true},
	}
	for _, c := range cases {
		if err := c.m.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestAllocateIsContiguous(t *testing.T) {
	d := MustNew(testModel(), 0)
	a, err := d.Allocate(10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Allocate(5)
	if err != nil {
		t.Fatal(err)
	}
	if a != 0 || b != 10 {
		t.Errorf("allocations at %d and %d, want 0 and 10", a, b)
	}
	if d.AllocatedPages() != 15 {
		t.Errorf("AllocatedPages = %d, want 15", d.AllocatedPages())
	}
}

func TestAllocateRejectsNonPositive(t *testing.T) {
	d := MustNew(testModel(), 0)
	if _, err := d.Allocate(0); err == nil {
		t.Error("Allocate(0) succeeded")
	}
	if _, err := d.Allocate(-3); err == nil {
		t.Error("Allocate(-3) succeeded")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := MustNew(testModel(), 0)
	p, _ := d.Allocate(1)
	want := []byte("hello page")
	if err := d.Write(p, want); err != nil {
		t.Fatal(err)
	}
	got, _, err := d.Read(0, p)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("read %q, want %q", got, want)
	}
}

func TestWriteBoundsChecked(t *testing.T) {
	d := MustNew(testModel(), 0)
	if err := d.Write(0, []byte("x")); err == nil {
		t.Error("write to unallocated page succeeded")
	}
	p, _ := d.Allocate(1)
	if err := d.Write(p, make([]byte, 9000)); err == nil {
		t.Error("oversized write succeeded")
	}
}

// TestWriteCopies pins Write's contract: the device keeps a copy, so the
// caller may reuse its buffer.
func TestWriteCopies(t *testing.T) {
	d := MustNew(testModel(), 0)
	p, _ := d.Allocate(1)
	buf := []byte("written")
	if err := d.Write(p, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'W'
	if got, _ := d.ReadRaw(p); string(got) != "written" {
		t.Errorf("Write kept the caller's buffer: page reads %q", got)
	}
}

// TestAllocateGrowsInOneStep allocates past the page table's capacity: the
// new pages are contiguous and read empty until written.
func TestAllocateGrowsInOneStep(t *testing.T) {
	d := MustNew(testModel(), 0)
	first, _ := d.Allocate(2)
	next, _ := d.Allocate(1000)
	if next != first+2 || d.AllocatedPages() != 1002 {
		t.Errorf("Allocate(1000) = %d with %d allocated", next, d.AllocatedPages())
	}
	for _, p := range []PageID{first, next, next + 999} {
		if got, err := d.ReadRaw(p); err != nil || len(got) != 0 {
			t.Errorf("fresh page %d reads %q, %v", p, got, err)
		}
	}
}

func TestReadBoundsChecked(t *testing.T) {
	d := MustNew(testModel(), 0)
	if _, _, err := d.Read(0, 0); err == nil {
		t.Error("read of unallocated page succeeded")
	}
	if _, _, err := d.Read(0, -1); err == nil {
		t.Error("read of negative page succeeded")
	}
}

func TestSequentialReadsSkipSeek(t *testing.T) {
	m := testModel()
	d := MustNew(m, 0)
	first, _ := d.Allocate(5)
	now := time.Duration(0)
	for i := 0; i < 5; i++ {
		_, lat, err := d.Read(now, first+PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		want := m.TransferPerPage
		if i == 0 {
			want += m.SeekTime // first read always seeks
		}
		if lat != want {
			t.Errorf("read %d: latency %v, want %v", i, lat, want)
		}
		now += lat
	}
	s := d.Stats()
	if s.Reads != 5 || s.Seeks != 1 {
		t.Errorf("stats = %+v, want 5 reads / 1 seek", s)
	}
}

func TestRandomReadsSeekEveryTime(t *testing.T) {
	m := testModel()
	d := MustNew(m, 0)
	first, _ := d.Allocate(100)
	now := time.Duration(0)
	for _, off := range []PageID{50, 3, 80, 4, 99} {
		_, lat, _ := d.Read(now, first+off)
		now += lat
	}
	if s := d.Stats(); s.Seeks != 5 {
		t.Errorf("Seeks = %d, want 5", s.Seeks)
	}
}

func TestInterleavedScansCauseSeeks(t *testing.T) {
	// Two scans ping-ponging over disjoint regions seek on every read;
	// this is exactly the pathology that scan sharing removes.
	d := MustNew(testModel(), 0)
	a, _ := d.Allocate(10)
	b, _ := d.Allocate(10)
	now := time.Duration(0)
	for i := 0; i < 10; i++ {
		_, lat, _ := d.Read(now, a+PageID(i))
		now += lat
		_, lat, _ = d.Read(now, b+PageID(i))
		now += lat
	}
	if s := d.Stats(); s.Seeks != 20 {
		t.Errorf("Seeks = %d, want 20 (every read seeks)", s.Seeks)
	}
}

func TestQueueingDelaysOverlappingRequests(t *testing.T) {
	m := testModel()
	d := MustNew(m, 0)
	p, _ := d.Allocate(2)
	_, lat0, _ := d.Read(0, p)
	// Issue a second request while the first is still in flight.
	_, lat1, _ := d.Read(lat0/2, p+1)
	wantQueue := lat0 - lat0/2
	if lat1 != wantQueue+m.TransferPerPage {
		t.Errorf("queued read latency %v, want %v", lat1, wantQueue+m.TransferPerPage)
	}
	if s := d.Stats(); s.QueueWait != wantQueue {
		t.Errorf("QueueWait = %v, want %v", s.QueueWait, wantQueue)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Reads: 10, Seeks: 4, BytesRead: 100, BusyTime: time.Second, QueueWait: time.Millisecond}
	b := Stats{Reads: 3, Seeks: 1, BytesRead: 30, BusyTime: time.Millisecond, QueueWait: 0}
	got := a.Sub(b)
	if got.Reads != 7 || got.Seeks != 3 || got.BytesRead != 70 {
		t.Errorf("Sub = %+v", got)
	}
}

func TestSeriesBucketsActivity(t *testing.T) {
	d := MustNew(testModel(), 10*time.Millisecond)
	p, _ := d.Allocate(4)
	d.Read(0, p)
	d.Read(1*time.Millisecond, p+1)
	d.Read(25*time.Millisecond, p+2)
	series := d.Series()
	if len(series) != 2 {
		t.Fatalf("got %d buckets, want 2: %+v", len(series), series)
	}
	if series[0].Bucket != 0 || series[0].Reads != 2 {
		t.Errorf("bucket 0 = %+v, want 2 reads at t=0", series[0])
	}
	if series[1].Bucket != 20*time.Millisecond || series[1].Reads != 1 {
		t.Errorf("bucket 1 = %+v, want 1 read at t=20ms", series[1])
	}
}

func TestSeriesDisabled(t *testing.T) {
	d := MustNew(testModel(), 0)
	p, _ := d.Allocate(1)
	d.Read(0, p)
	if s := d.Series(); len(s) != 0 {
		t.Errorf("series collected despite zero bucket width: %+v", s)
	}
}

func TestResetStats(t *testing.T) {
	d := MustNew(testModel(), time.Millisecond)
	p, _ := d.Allocate(1)
	d.Read(0, p)
	d.ResetStats()
	if s := d.Stats(); s.Reads != 0 || s.Seeks != 0 {
		t.Errorf("stats after reset: %+v", s)
	}
	if len(d.Series()) != 0 {
		t.Error("series not cleared by reset")
	}
}

func TestReadLatencyAndStatsProperties(t *testing.T) {
	// Property: for any read sequence, latency is at least the transfer
	// time, seek accounting matches a reference model of head movement,
	// and the byte counter is exactly reads * page size.
	f := func(offsets []uint8) bool {
		d := MustNew(testModel(), 0)
		first, _ := d.Allocate(256)
		now := time.Duration(0)
		var reads, wantSeeks int64
		head := InvalidPage
		for _, off := range offsets {
			p := first + PageID(off)
			_, lat, err := d.Read(now, p)
			if err != nil || lat < d.Model().TransferPerPage {
				return false
			}
			reads++
			if p != head {
				wantSeeks++
			}
			head = p + 1
			now += lat
		}
		s := d.Stats()
		return s.Reads == reads &&
			s.Seeks == wantSeeks &&
			s.BytesRead == reads*int64(d.Model().PageSize)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
