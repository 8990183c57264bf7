// Package heap implements read-optimized heap tables over the simulated
// disk: tuples packed into slotted pages, pages allocated as one contiguous
// extent per table.
//
// Contiguity matters to the experiments: a single table scan reading pages in
// order is sequential at the device and pays (almost) no seeks, while two
// interleaved scans at different positions seek constantly — the exact
// pathology the paper's grouping mechanism removes. Tables are immutable once
// built (the paper's workload is a read-only decision-support database).
//
// Page format, little-endian:
//
//	[0:2]   uint16 tuple count n
//	[2:2+2n] uint16 tuple offsets, relative to the start of the data area
//	[2+2n:] tuple data (concatenated record encodings)
package heap

import (
	"encoding/binary"
	"fmt"
	"sync"

	"scanshare/internal/disk"
	"scanshare/internal/record"
)

const pageHeaderSize = 2
const slotSize = 2

// Table is an immutable heap table resident on a Device.
type Table struct {
	name   string
	schema *record.Schema
	dev    *disk.Device
	first  disk.PageID
	pages  int
	tuples int64
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *record.Schema { return t.schema }

// NumPages returns the number of data pages.
func (t *Table) NumPages() int { return t.pages }

// NumTuples returns the number of rows.
func (t *Table) NumTuples() int64 { return t.tuples }

// FirstPage returns the device PageID of the table's first page; the
// table occupies [FirstPage, FirstPage+NumPages).
func (t *Table) FirstPage() disk.PageID { return t.first }

// PageID maps a table-relative page number to the device PageID.
func (t *Table) PageID(pageNo int) (disk.PageID, error) {
	if pageNo < 0 || pageNo >= t.pages {
		return disk.InvalidPage, fmt.Errorf("heap: page %d out of range [0,%d)", pageNo, t.pages)
	}
	return t.first + disk.PageID(pageNo), nil
}

// Builder accumulates tuples into pages and materializes a Table.
type Builder struct {
	name     string
	schema   *record.Schema
	dev      *disk.Device
	pageSize int

	pages    [][]byte // fully encoded pages
	offsets  []uint16 // slots of the page under construction
	data     []byte   // data area of the page under construction
	tuples   int64
	finished bool
}

// NewBuilder starts building a table on dev.
func NewBuilder(dev *disk.Device, name string, schema *record.Schema) (*Builder, error) {
	if name == "" {
		return nil, fmt.Errorf("heap: empty table name")
	}
	if schema == nil {
		return nil, fmt.Errorf("heap: nil schema")
	}
	return &Builder{name: name, schema: schema, dev: dev, pageSize: dev.Model().PageSize}, nil
}

// Append adds one tuple, starting a new page when the current one is full.
// The tuple is encoded once, straight behind the current page's data, and
// measured there; a tuple that does not fit moves to the next page. Nothing
// of t is kept, so the caller may reuse it. An error leaves the builder as it
// was.
func (b *Builder) Append(t record.Tuple) error {
	if b.finished {
		return fmt.Errorf("heap: Append after Finish")
	}
	start := len(b.data)
	data, err := record.Encode(b.data, b.schema, t)
	if err != nil {
		return err
	}
	size := len(data) - start
	payload := b.pageSize - pageHeaderSize
	if size+slotSize > payload {
		return fmt.Errorf("heap: tuple of %d bytes does not fit a %d-byte page", size, b.pageSize)
	}
	need := pageHeaderSize + (len(b.offsets)+1)*slotSize + len(data)
	if need > b.pageSize {
		b.data = data[:start]
		b.flushPage()
		data = data[:copy(data, data[start:])]
		start = 0
	}
	b.data = data
	b.offsets = append(b.offsets, uint16(start))
	b.tuples++
	return nil
}

func (b *Builder) flushPage() {
	n := len(b.offsets)
	page := make([]byte, 0, pageHeaderSize+n*slotSize+len(b.data))
	page = binary.LittleEndian.AppendUint16(page, uint16(n))
	for _, off := range b.offsets {
		page = binary.LittleEndian.AppendUint16(page, off)
	}
	page = append(page, b.data...)
	b.pages = append(b.pages, page)
	b.offsets = b.offsets[:0]
	b.data = b.data[:0]
}

// Finish writes all pages to the device and returns the Table. A table must
// contain at least one tuple.
func (b *Builder) Finish() (*Table, error) {
	if b.finished {
		return nil, fmt.Errorf("heap: Finish called twice")
	}
	if len(b.offsets) > 0 {
		b.flushPage()
	}
	b.finished = true
	if len(b.pages) == 0 {
		return nil, fmt.Errorf("heap: table %q has no tuples", b.name)
	}
	first, err := b.dev.Allocate(len(b.pages))
	if err != nil {
		return nil, err
	}
	for i, page := range b.pages {
		if err := b.dev.Write(first+disk.PageID(i), page); err != nil {
			return nil, fmt.Errorf("heap: writing page %d of %q: %w", i, b.name, err)
		}
	}
	t := &Table{
		name:   b.name,
		schema: b.schema,
		dev:    b.dev,
		first:  first,
		pages:  len(b.pages),
		tuples: b.tuples,
	}
	b.pages = nil
	return t, nil
}

// PageView provides access to the tuples of one encoded page, decoding the
// columns of its column set.
type PageView struct {
	cols  record.Columns
	n     int
	data  []byte // data area
	slots []byte // raw slot directory
}

// View parses the page header and slot directory of buf for a reader of
// every column. The data is not copied; buf must stay immutable while the
// view, and any varchar decoded through it, is used.
func View(schema *record.Schema, buf []byte) (PageView, error) {
	return ViewColumns(record.AllColumns(schema), buf)
}

// ViewColumns is View for a reader of the columns in cols only: tuples keep
// the schema's width and ordinals, and columns outside the set read as the
// zero Value of their kind.
func ViewColumns(cols record.Columns, buf []byte) (PageView, error) {
	if len(buf) < pageHeaderSize {
		return PageView{}, fmt.Errorf("heap: page of %d bytes has no header", len(buf))
	}
	n := int(binary.LittleEndian.Uint16(buf))
	dirEnd := pageHeaderSize + n*slotSize
	if dirEnd > len(buf) {
		return PageView{}, fmt.Errorf("heap: slot directory of %d entries exceeds page", n)
	}
	return PageView{
		cols:  cols,
		n:     n,
		slots: buf[pageHeaderSize:dirEnd],
		data:  buf[dirEnd:],
	}, nil
}

// NumTuples returns the number of tuples on the page.
func (v PageView) NumTuples() int { return v.n }

// Tuple decodes tuple i into dst and returns it. dst is empty (its backing
// array is reused) or a tuple this view's column set decoded before, and the
// varchars of the result are views into the page: see record.Columns.Decode.
// A caller that keeps a value beyond the page Clones it.
func (v PageView) Tuple(dst record.Tuple, i int) (record.Tuple, error) {
	if i < 0 || i >= v.n {
		return nil, fmt.Errorf("heap: tuple %d out of range [0,%d)", i, v.n)
	}
	off := int(binary.LittleEndian.Uint16(v.slots[i*slotSize:]))
	if off > len(v.data) {
		return nil, fmt.Errorf("heap: tuple %d offset %d beyond data area", i, off)
	}
	t, _, err := v.cols.Decode(dst, v.data[off:])
	return t, err
}

// AppendTo decodes every tuple on the page, in slot order, onto the end of
// dst under dst's column set. Its errors are Tuple's; on one, the tuples
// ahead of the failing one stay appended. dst's varchars view the page, as
// Tuple's do.
func (v PageView) AppendTo(dst *record.Vectors) error {
	var offsets [64]int // a chunk of tuples, handed over at once
	for i := 0; i < v.n; {
		m := 0
		for ; m < len(offsets) && i < v.n; m, i = m+1, i+1 {
			off := int(binary.LittleEndian.Uint16(v.slots[i*slotSize:]))
			if off > len(v.data) {
				if err := dst.AppendAt(v.data, offsets[:m]); err != nil {
					return err
				}
				return fmt.Errorf("heap: tuple %d offset %d beyond data area", i, off)
			}
			offsets[m] = off
		}
		if err := dst.AppendAt(v.data, offsets[:m]); err != nil {
			return err
		}
	}
	return nil
}

// scratchTuples recycles ForEach's decode buffer: fn is an unknown function,
// so a buffer local to ForEach would be heap-allocated on every call.
var scratchTuples = sync.Pool{New: func() any { return new(record.Tuple) }}

// ForEach decodes every tuple on the page in slot order and calls fn. Both
// the tuple and the bytes its varchars view are only fn's for the duration
// of the call: the tuple is overwritten by the next decode and the varchars
// point into the page. fn must Clone whatever it retains.
func (v PageView) ForEach(fn func(record.Tuple) error) error {
	scratch := scratchTuples.Get().(*record.Tuple)
	defer func() {
		clear(*scratch) // drop the views so a pooled buffer pins no page
		*scratch = (*scratch)[:0]
		scratchTuples.Put(scratch)
	}()
	for i := 0; i < v.n; i++ {
		t, err := v.Tuple(*scratch, i)
		if err != nil {
			return err
		}
		*scratch = t
		if err := fn(t); err != nil {
			return err
		}
	}
	return nil
}
