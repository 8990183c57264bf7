// Package heap implements read-optimized heap tables over the simulated
// disk: tuples laid out column by column in pages, pages allocated as one
// contiguous extent per table.
//
// Contiguity matters to the experiments: a single table scan reading pages in
// order is sequential at the device and pays (almost) no seeks, while two
// interleaved scans at different positions seek constantly — the exact
// pathology the paper's grouping mechanism removes. Tables are immutable once
// built (the paper's workload is a read-only decision-support database).
//
// Page format, little-endian, for a schema of c columns and a page of n
// tuples:
//
//	[0:2]      uint16 tuple count n
//	[2:2+2c]   uint16 start of each column's area, in schema order; an
//	           area ends where the next one starts, the last one at the
//	           end of the page
//	areas:
//	  bigint, double, date: n 8-byte words
//	  varchar, run form:    a 0 byte; a uint16 checkpoint for every 16th
//	                        value after the first, its offset in the
//	                        values; the n values, each a uvarint length
//	                        and that many bytes
//	  varchar, dictionary:  d, the entry count, 1..255; d uint16 offsets,
//	                        where each entry's bytes end; the entries'
//	                        bytes; n one-byte codes, one per tuple
//
// A varchar column takes whichever form is smaller on its page. The
// checkpoints keep the read of one tuple's varchar within 16 values.
//
// Pages break where a page of row-encoded tuples would: the builder counts
// each tuple's record.EncodedSize and a 2-byte slot per tuple against the
// page size. The column-major page of those tuples is smaller as long as it
// holds more tuples than its header has columns (2n bytes of slots against
// 2c of offsets and a byte per varchar column); the builder checks, and
// splits a page that does not fit in two or more (see Builder).
package heap

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"scanshare/internal/disk"
	"scanshare/internal/record"
)

const (
	countSize  = 2 // the tuple count
	offsetSize = 2 // a column's start
	slotSize   = 2 // a row page's per-tuple slot, which the boundary rule counts
	wordSize   = 8 // a fixed-width value

	checkpointEvery = 16  // values between a run column's checkpoints
	maxDict         = 255 // entries a dictionary can have
	runForm         = 0   // the first byte of a run-form varchar column

	// maxPageSize is the largest page whose offsets fit a uint16.
	maxPageSize = 1 << 16
)

// Table is an immutable heap table resident on a Device.
type Table struct {
	name   string
	schema *record.Schema
	dev    *disk.Device
	first  disk.PageID
	pages  int
	tuples int64
	stats  []ColumnStats
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

// ColumnStats returns the load statistics of column ord.
func (t *Table) ColumnStats(ord int) ColumnStats { return t.stats[ord] }

// Builder accumulates tuples into pages and materializes a Table. It keeps
// the tuples as one typed buffer per column and lays their pages out from
// the buffers; no tuple is ever row-encoded. Full pages are laid out a batch
// at a time on a goroutine of their own while the next batch fills, so that
// a load can use a second core; the Builder itself is for one goroutine.
//
// A page that holds fewer tuples than its header has columns can be larger
// column-major than row-encoded. When such a page does not fit the page
// size, the builder splits it: the longest prefix of its tuples that fits
// becomes a page, and so on. Page boundaries of the row rule are kept
// either way. A tuple that does not fit a page on its own is rejected.
type Builder struct {
	name     string
	schema   *record.Schema
	dev      *disk.Device
	pageSize int

	width    int // columns of the schema
	varchars int // varchar columns of the schema
	fill     batch
	n        int // tuples of the page under construction, the last of fill's
	rowBytes int // their record.EncodedSize
	tuples   int64
	finished bool

	// While a batch is in flight, its layout goroutine owns it (spare),
	// the pages, the slab and the statistics; laidOut says when it is
	// done.
	inFlight  bool
	laidOut   chan struct{}
	spare     batch
	pages     [][]byte // laid-out pages, carved from slab
	slab      []byte
	slabPages int // the pages the last slab had room for
	stats     []ColumnStats
}

// batchPages is how many full pages a batch holds: enough work that handing
// it to the layout goroutine costs little beside it.
const batchPages = 16

// batch is the tuples of some pages, a column at a time, and where each
// page ends.
type batch struct {
	cols []column
	rows int
	ends []int
}

// column is one column of a batch.
type column struct {
	kind  record.Kind
	words []uint64 // bigint, date: the value; double: its bits
	strs  []string // varchar: the values, by reference (strings are immutable)
	// The varchar's form on the page being laid out.
	runSize int // the run form's size
	dict    bool
	entries []string         // dictionary entries, in order of first appearance
	codes   []uint8          // the tuples' codes
	index   map[string]uint8 // the entries' codes, once there are many
	indexed bool             // index holds the page's entries
	recent  [32]uint8        // code + 1 of an entry, by a hash of its length and end bytes
}

// NewBuilder starts building a table on dev.
func NewBuilder(dev *disk.Device, name string, schema *record.Schema) (*Builder, error) {
	if name == "" {
		return nil, fmt.Errorf("heap: empty table name")
	}
	if schema == nil {
		return nil, fmt.Errorf("heap: nil schema")
	}
	pageSize := dev.Model().PageSize
	if pageSize > maxPageSize {
		return nil, fmt.Errorf("heap: %d-byte pages exceed the %d bytes a page's offsets address", pageSize, maxPageSize)
	}
	w := schema.NumFields()
	b := &Builder{name: name, schema: schema, dev: dev, pageSize: pageSize, width: w,
		fill: batch{cols: make([]column, w)}, spare: batch{cols: make([]column, w)},
		stats: make([]ColumnStats, w), laidOut: make(chan struct{}, 1)}
	for i := range b.fill.cols {
		k := schema.Field(i).Kind
		b.fill.cols[i].kind, b.spare.cols[i].kind = k, k
		b.stats[i] = ColumnStats{kind: k, monotone: true}
		if k == record.KindString {
			b.varchars++
		}
	}
	return b, nil
}

// headerSize is the size of a page's count and column offsets.
func (b *Builder) headerSize() int { return countSize + offsetSize*b.width }

// Append adds one tuple, starting a new page when the current one is full.
// Nothing of t but its varchars' strings is kept, so the caller may reuse
// it. An error leaves the builder as it was.
func (b *Builder) Append(t record.Tuple) error {
	if b.finished {
		return fmt.Errorf("heap: Append after Finish")
	}
	size, err := record.EncodedSize(b.schema, t)
	if err != nil {
		return err
	}
	// Alone on a row page, a tuple takes its row size and a slot; alone on
	// a column-major one, its row size behind the header and a form byte
	// per varchar.
	if size+slotSize > b.pageSize-countSize || b.headerSize()+b.varchars+size > b.pageSize {
		return fmt.Errorf("heap: tuple of %d bytes does not fit a %d-byte page", size, b.pageSize)
	}
	if countSize+(b.n+1)*slotSize+b.rowBytes+size > b.pageSize {
		b.endPage()
	}
	for i := range b.fill.cols {
		c, v := &b.fill.cols[i], &t[i]
		switch c.kind {
		case record.KindString:
			c.strs = append(c.strs, v.S)
		case record.KindFloat64:
			c.words = append(c.words, math.Float64bits(v.F))
		default:
			c.words = append(c.words, uint64(v.I))
		}
	}
	b.fill.rows++
	b.n++
	b.rowBytes += size
	b.tuples++
	return nil
}

// endPage ends the page under construction, and hands the batch over once
// it is full.
func (b *Builder) endPage() {
	b.fill.ends = append(b.fill.ends, b.fill.rows)
	b.n, b.rowBytes = 0, 0
	if len(b.fill.ends) == batchPages {
		b.handOver()
	}
}

// handOver hands the full pages of fill to a goroutine that lays them out,
// once the batch before them is laid out, and goes on with the spare
// buffers. The goroutine never blocks, so a builder that is dropped leaks
// none.
func (b *Builder) handOver() {
	b.wait()
	b.fill, b.spare = b.spare, b.fill
	b.inFlight = true
	go func() {
		b.layout(&b.spare)
		b.laidOut <- struct{}{}
	}()
}

// wait waits until the batch in flight, if any, is laid out.
func (b *Builder) wait() {
	if b.inFlight {
		<-b.laidOut
		b.inFlight = false
	}
}

// layout lays out the pages of bt, each split if it does not fit, and
// empties bt.
func (b *Builder) layout(bt *batch) {
	lo := 0
	for _, end := range bt.ends {
		for lo < end {
			hi := end
			size := b.plan(bt.cols, lo, hi)
			if size > b.pageSize {
				// The longest prefix that fits; a page's size only
				// grows with its tuples, and one tuple always fits.
				fits, over := lo+1, hi
				for fits+1 < over {
					if mid := (fits + over) / 2; b.plan(bt.cols, lo, mid) <= b.pageSize {
						fits = mid
					} else {
						over = mid
					}
				}
				hi = fits
				size = b.plan(bt.cols, lo, hi)
			}
			b.writePage(bt.cols, lo, hi, size)
			lo = hi
		}
	}
	for i := range bt.cols {
		c := &bt.cols[i]
		c.words = c.words[:0]
		clear(c.strs)
		c.strs = c.strs[:0]
	}
	bt.rows, bt.ends = 0, bt.ends[:0]
}

// plan chooses the form of every varchar column of cols for a page of
// tuples [lo, hi) and returns the page's size.
func (b *Builder) plan(cols []column, lo, hi int) int {
	n := hi - lo
	size := b.headerSize()
	for i := range cols {
		c := &cols[i]
		if c.kind != record.KindString {
			size += wordSize * n
			continue
		}
		c.dict = false
		if dictSize, ok := c.measure(c.strs[lo:hi]); ok && dictSize < c.runSize {
			c.dict = true
			size += dictSize
		} else {
			size += c.runSize
		}
	}
	return size
}

// linearDict is how many entries measure searches one by one before it
// indexes them.
const linearDict = 16

// measure sizes the run form of strs into c.runSize and codes strs against
// a dictionary of their distinct values in order of first appearance; ok is
// false when there are more than maxDict of them. It returns the dictionary
// form's size.
func (c *column) measure(strs []string) (dictSize int, ok bool) {
	c.entries, c.codes = c.entries[:0], c.codes[:0]
	clear(c.recent[:])
	if c.indexed {
		clear(c.index)
		c.indexed = false
	}
	n := len(strs)
	c.runSize = 1 + offsetSize*((n-1)/checkpointEvery)
	bytes, ok := 0, true
	for _, s := range strs {
		c.runSize += uvarintLen(len(s)) + len(s)
		if !ok {
			continue
		}
		// A string's length and end bytes pick a slot of recent, which
		// holds the code of the last entry seen there.
		h := uint64(len(s))
		if len(s) > 0 {
			h |= uint64(s[0])<<32 | uint64(s[len(s)-1])<<40
		}
		slot := &c.recent[(h*0x9E3779B97F4A7C15)>>(64-5)]
		if j := int(*slot) - 1; j >= 0 && sameString(c.entries[j], s) {
			c.codes = append(c.codes, uint8(j))
			continue
		}
		j := c.lookup(s)
		if j < 0 {
			if len(c.entries) == maxDict {
				ok = false
				continue
			}
			j = len(c.entries)
			c.entries = append(c.entries, s)
			if c.indexed {
				c.index[s] = uint8(j)
			}
			bytes += len(s)
		}
		*slot = uint8(j + 1)
		c.codes = append(c.codes, uint8(j))
	}
	return 1 + offsetSize*len(c.entries) + bytes + n, ok
}

// sameString is a == b, without comparing the bytes of two strings that are
// one: loaders often pass the same few strings row after row.
func sameString(a, b string) bool {
	return len(a) == len(b) && (unsafe.StringData(a) == unsafe.StringData(b) || a == b)
}

// lookup returns the code of entry s, or -1: by a linear search while the
// entries are few, by the index once they are not.
func (c *column) lookup(s string) int {
	if len(c.entries) <= linearDict {
		for j, e := range c.entries {
			if e == s {
				return j
			}
		}
		return -1
	}
	if !c.indexed {
		if c.index == nil {
			c.index = make(map[string]uint8)
		}
		for j, e := range c.entries {
			c.index[e] = uint8(j)
		}
		c.indexed = true
	}
	if j, found := c.index[s]; found {
		return int(j)
	}
	return -1
}

func uvarintLen(x int) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// writePage lays out tuples [lo, hi) of cols as planned, size bytes, and folds them
// into the column statistics.
func (b *Builder) writePage(cols []column, lo, hi, size int) {
	n := hi - lo
	page := b.alloc(size)
	binary.LittleEndian.PutUint16(page, uint16(n))
	off := b.headerSize()
	for i := range cols {
		c := &cols[i]
		binary.LittleEndian.PutUint16(page[countSize+offsetSize*i:], uint16(off))
		switch {
		case c.kind != record.KindString:
			off += putWords(page[off:], c.words[lo:hi])
		case c.dict:
			page[off] = uint8(len(c.entries))
			ends, at := off+1, off+1+offsetSize*len(c.entries)
			end := 0
			for j, e := range c.entries {
				end += len(e)
				binary.LittleEndian.PutUint16(page[ends+offsetSize*j:], uint16(end))
				copy(page[at:], e)
				at += len(e)
			}
			off = at + copy(page[at:], c.codes)
		default:
			page[off] = runForm
			checkpoints := off + 1
			values := checkpoints + offsetSize*((n-1)/checkpointEvery)
			at := values
			for r, s := range c.strs[lo:hi] {
				if r > 0 && r%checkpointEvery == 0 {
					binary.LittleEndian.PutUint16(page[checkpoints+offsetSize*(r/checkpointEvery-1):], uint16(at-values))
				}
				at += binary.PutUvarint(page[at:], uint64(len(s)))
				at += copy(page[at:], s)
			}
			off = at
		}
		b.stats[i].fold(c, lo, hi)
	}
	b.pages = append(b.pages, page)
}

// putWords lays ws out in dst as little-endian 8-byte words and returns
// their size: on a little-endian machine a copy of their bytes.
func putWords(dst []byte, ws []uint64) int {
	if len(ws) == 0 {
		return 0
	}
	if bigEndian {
		for i, w := range ws {
			binary.LittleEndian.PutUint64(dst[wordSize*i:], w)
		}
		return wordSize * len(ws)
	}
	return copy(dst, unsafe.Slice((*byte)(unsafe.Pointer(&ws[0])), wordSize*len(ws)))
}

// bigEndian reports whether the machine stores words most significant byte
// first.
var bigEndian = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// alloc returns a page of size bytes, carved from a slab of pages: the
// device keeps the pages the builder lays out, so a table costs an
// allocation per slab rather than two per page. Slabs double from 4 pages
// to 64, so a small table wastes little of its last one.
func (b *Builder) alloc(size int) []byte {
	if len(b.slab) < size {
		b.slabPages = min(64, max(4, 2*b.slabPages))
		b.slab = make([]byte, max(size, b.slabPages*b.pageSize))
	}
	page := b.slab[:size:size]
	b.slab = b.slab[size:]
	return page
}

// Finish hands every page to the device and returns the Table. A table
// must contain at least one tuple.
func (b *Builder) Finish() (*Table, error) {
	if b.finished {
		return nil, fmt.Errorf("heap: Finish called twice")
	}
	if b.n > 0 {
		b.fill.ends = append(b.fill.ends, b.fill.rows)
	}
	if len(b.fill.ends) > 0 {
		b.handOver()
	}
	b.wait()
	b.finished = true
	if len(b.pages) == 0 {
		return nil, fmt.Errorf("heap: table %q has no tuples", b.name)
	}
	first, err := b.dev.Allocate(len(b.pages))
	if err != nil {
		return nil, err
	}
	for i, page := range b.pages {
		if err := b.dev.Install(first+disk.PageID(i), page); err != nil {
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
		stats:  b.stats,
	}
	b.pages, b.slab, b.fill, b.spare = nil, nil, batch{}, batch{}
	return t, nil
}
