// Package disk simulates the storage device underneath the buffer pool.
//
// The paper's evaluation hinges on two device-level observables: the amount
// of data physically read and the number of disk seeks (its Figures plot both
// over time, and its headline table reports ~33% read and ~34% seek
// reductions). This package provides a page-addressed device with a simple,
// explicit cost model that makes those observables first-class:
//
//   - reading page p immediately after page p-1 of the same allocation is
//     sequential: it costs only transfer time;
//   - any other read incurs a seek (head movement + rotational settle) before
//     the transfer.
//
// The device also models *contention*: it serves one request at a time, so a
// read issued while the device is busy queues behind the in-flight request.
// This reproduces the paper's observation that drifting scans "affect the
// leader itself negatively since its I/O requests get delayed more due to a
// busier disk".
//
// Pages carry real bytes. Tables allocate contiguous page extents, write
// encoded tuples into them, and later read them back through the buffer pool,
// so a "physical read" in an experiment is an actual copy of an actual page.
package disk

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// PageID addresses a page on the device. The device's page space is linear;
// allocations (tables) own contiguous ranges of it.
type PageID int64

// InvalidPage is a sentinel PageID that no allocation ever contains.
const InvalidPage PageID = -1

// Model holds the device cost parameters.
//
// The defaults (DefaultModel) are loosely calibrated to the mid-2000s
// enterprise drives of the paper's testbeds: a few milliseconds per seek and
// a sustained transfer rate in the tens of MB/s. Absolute values do not
// matter for reproducing the paper's *shape*; the seek/transfer ratio does.
type Model struct {
	// SeekTime is charged for every non-sequential read.
	SeekTime time.Duration
	// TransferPerPage is charged for every page read, seek or not.
	TransferPerPage time.Duration
	// PageSize is the size of a page in bytes; it scales the "KB read"
	// series and the backing storage.
	PageSize int
}

// DefaultModel returns the cost model used by the experiment harness:
// 8 KiB pages, 4 ms seeks, 0.2 ms per-page transfer (≈ 40 MB/s sustained).
func DefaultModel() Model {
	return Model{
		SeekTime:        4 * time.Millisecond,
		TransferPerPage: 200 * time.Microsecond,
		PageSize:        8 * 1024,
	}
}

// Validate reports whether the model parameters are usable.
func (m Model) Validate() error {
	if m.SeekTime < 0 {
		return fmt.Errorf("disk: negative SeekTime %v", m.SeekTime)
	}
	if m.TransferPerPage <= 0 {
		return fmt.Errorf("disk: non-positive TransferPerPage %v", m.TransferPerPage)
	}
	if m.PageSize <= 0 {
		return fmt.Errorf("disk: non-positive PageSize %d", m.PageSize)
	}
	return nil
}

// Stats is a snapshot of the device counters.
type Stats struct {
	Reads     int64         // pages physically read
	Seeks     int64         // non-sequential reads
	BytesRead int64         // Reads * PageSize
	BusyTime  time.Duration // total time the device spent serving requests
	QueueWait time.Duration // total time requests waited for the device
}

// Sub returns s - o, counter by counter. It is used to compute per-interval
// deltas.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:     s.Reads - o.Reads,
		Seeks:     s.Seeks - o.Seeks,
		BytesRead: s.BytesRead - o.BytesRead,
		BusyTime:  s.BusyTime - o.BusyTime,
		QueueWait: s.QueueWait - o.QueueWait,
	}
}

// Sample is one entry of the device's time-bucketed activity series,
// mirroring the per-interval bars of the paper's "reads over time" and
// "seeks over time" figures.
type Sample struct {
	Bucket    time.Duration // start of the interval
	Reads     int64
	Seeks     int64
	BytesRead int64
}

// Device is a simulated page-addressed disk. It is safe for concurrent use,
// although under the simulation kernel calls are naturally serialized.
type Device struct {
	mu    sync.Mutex
	model Model

	pages   [][]byte // backing store, indexed by PageID
	alloced PageID   // next unallocated page

	head   PageID        // page after the last one read (InvalidPage+...)
	freeAt time.Duration // virtual time at which the device becomes idle

	stats Stats

	bucketWidth time.Duration
	buckets     map[time.Duration]*Sample
}

// New creates a device with the given cost model. bucketWidth sets the
// granularity of the activity series; zero disables series collection.
func New(model Model, bucketWidth time.Duration) (*Device, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if bucketWidth < 0 {
		return nil, fmt.Errorf("disk: negative bucket width %v", bucketWidth)
	}
	d := &Device{model: model, head: InvalidPage, bucketWidth: bucketWidth}
	if bucketWidth > 0 {
		d.buckets = make(map[time.Duration]*Sample)
	}
	return d, nil
}

// MustNew is New for known-good parameters; it panics on error.
func MustNew(model Model, bucketWidth time.Duration) *Device {
	d, err := New(model, bucketWidth)
	if err != nil {
		panic(err)
	}
	return d
}

// Model returns the device's cost model.
func (d *Device) Model() Model { return d.model }

// Allocate reserves n contiguous pages and returns the first PageID. The
// pages are zero-filled lazily on first write.
func (d *Device) Allocate(n int) (PageID, error) {
	if n <= 0 {
		return InvalidPage, fmt.Errorf("disk: allocate %d pages", n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	first := d.alloced
	d.alloced += PageID(n)
	d.pages = slices.Grow(d.pages, n)[:d.alloced]
	clear(d.pages[first:])
	return first, nil
}

// AllocatedPages returns the total number of allocated pages.
func (d *Device) AllocatedPages() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(d.alloced)
}

// Write stores a copy of data as the content of page p; writes are not part
// of the cost model (the workload is read-only after load, as in the
// paper's TPC-H runs).
func (d *Device) Write(p PageID, data []byte) error {
	return d.Install(p, append([]byte{}, data...))
}

// Install stores data as the content of page p without copying it: the
// device takes the slice over, and the caller must never write to it again.
// A table builder that lays its pages out in buffers of their own hands
// them over this way (Write is Install of a copy). data's capacity is cut to
// its length, so that no append through a slice the device hands out
// reaches bytes beyond it.
func (d *Device) Install(p PageID, data []byte) error {
	if len(data) > d.model.PageSize {
		return fmt.Errorf("disk: page %d write of %d bytes exceeds page size %d", p, len(data), d.model.PageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if p < 0 || p >= d.alloced {
		return fmt.Errorf("disk: write to unallocated page %d", p)
	}
	d.pages[p] = data[:len(data):len(data)]
	return nil
}

// Read performs a physical read of page p issued at virtual time now.
// It returns the page contents and the latency the issuing process must
// charge itself (queueing delay + seek, if any + transfer).
//
// The returned slice is the device's own copy; callers must not modify it.
func (d *Device) Read(now time.Duration, p PageID) ([]byte, time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p < 0 || p >= d.alloced {
		return nil, 0, fmt.Errorf("disk: read of unallocated page %d", p)
	}

	start := now
	if d.freeAt > start {
		start = d.freeAt // queue behind the in-flight request
	}
	queueWait := start - now

	service := d.model.TransferPerPage
	seek := p != d.head
	if seek {
		service += d.model.SeekTime
		d.stats.Seeks++
	}
	d.head = p + 1
	d.freeAt = start + service

	d.stats.Reads++
	d.stats.BytesRead += int64(d.model.PageSize)
	d.stats.BusyTime += service
	d.stats.QueueWait += queueWait
	d.record(now, seek)

	data := d.pages[p]
	if data == nil {
		data = []byte{}
	}
	return data, queueWait + service, nil
}

// ReadRaw returns the contents of page p without engaging the cost model:
// no latency is computed and the head position, busy window, counters, and
// activity series stay untouched. The realtime execution mode reads through
// it — its reads happen in wall-clock time, and letting them advance the
// device's virtual-time state (head, freeAt) would corrupt any virtual-time
// Run that follows on the same engine.
//
// The returned slice is the device's own copy; callers must not modify it.
func (d *Device) ReadRaw(p PageID) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p < 0 || p >= d.alloced {
		return nil, fmt.Errorf("disk: read of unallocated page %d", p)
	}
	data := d.pages[p]
	if data == nil {
		data = []byte{}
	}
	return data, nil
}

func (d *Device) record(now time.Duration, seek bool) {
	if d.buckets == nil {
		return
	}
	b := now - now%d.bucketWidth
	s := d.buckets[b]
	if s == nil {
		s = &Sample{Bucket: b}
		d.buckets[b] = s
	}
	s.Reads++
	s.BytesRead += int64(d.model.PageSize)
	if seek {
		s.Seeks++
	}
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Series returns the activity series ordered by bucket start time. Buckets
// with no activity are omitted.
func (d *Device) Series() []Sample {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Sample, 0, len(d.buckets))
	for _, s := range d.buckets {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bucket < out[j].Bucket })
	return out
}

// ResetStats clears the counters and the activity series but keeps the data
// and the head position.
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
	if d.buckets != nil {
		d.buckets = make(map[time.Duration]*Sample)
	}
}
