package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"scanshare/internal/record"
)

// errMalformed is what a read of a varchar column that its page does not
// hold fails with: an area whose parts do not fit it, a code past the
// dictionary or naming an entry that is not there, a value past its
// column, checkpoints the values do not meet. Every reader of a page
// (Tuple, AppendTo, ForEach) fails with it on the same pages: AppendTo
// fails exactly where reading each tuple would.
var errMalformed = errors.New("heap: malformed varchar column")

// PageView provides access to the tuples of one page, reading the columns
// of its column set.
type PageView struct {
	cols record.Columns
	n    int
	page []byte
}

// View parses the page header of buf for a reader of every column. The data
// is not copied; buf must stay immutable while the view, and any varchar
// read through it, is used.
func View(schema *record.Schema, buf []byte) (PageView, error) {
	return ViewColumns(record.AllColumns(schema), buf)
}

// ViewColumns is View for a reader of the columns in cols only: tuples keep
// the schema's width and ordinals, and columns outside the set read as the
// zero Value of their kind. It checks the header and the size of every
// fixed-width column, touching no column's bytes; a read of a varchar can
// fail with errMalformed.
func ViewColumns(cols record.Columns, buf []byte) (PageView, error) {
	if len(buf) < countSize {
		return PageView{}, fmt.Errorf("heap: page of %d bytes has no header", len(buf))
	}
	v := PageView{cols: cols, n: int(binary.LittleEndian.Uint16(buf)), page: buf}
	schema := cols.Schema()
	width := schema.NumFields()
	if countSize+offsetSize*width > len(buf) {
		return PageView{}, fmt.Errorf("heap: header of %d columns exceeds a %d-byte page", width, len(buf))
	}
	prev := countSize + offsetSize*width
	for ord := 0; ord < width; ord++ {
		start := int(binary.LittleEndian.Uint16(buf[countSize+offsetSize*ord:]))
		if start < prev || start > len(buf) {
			return PageView{}, fmt.Errorf("heap: column %d starts at %d, outside [%d,%d]", ord, start, prev, len(buf))
		}
		prev = start
	}
	for ord := 0; ord < width; ord++ {
		if area := v.area(ord); schema.Field(ord).Kind != record.KindString && len(area) != wordSize*v.n {
			return PageView{}, fmt.Errorf("heap: column %d holds %d bytes for %d tuples", ord, len(area), v.n)
		}
	}
	return v, nil
}

// area returns column ord's bytes; the view has checked the offsets.
func (v PageView) area(ord int) []byte {
	at := countSize + offsetSize*ord
	start, end := int(binary.LittleEndian.Uint16(v.page[at:])), len(v.page)
	if ord+1 < v.cols.Schema().NumFields() {
		end = int(binary.LittleEndian.Uint16(v.page[at+offsetSize:]))
	}
	return v.page[start:end]
}

// varchar is a varchar column's area, taken apart.
type varchar struct {
	// Dictionary form: entries, ends the uint16 end of each in entries,
	// and codes the tuples' codes; nil in the run form.
	entries, ends, codes []byte
	// Run form: the values and the checkpoints into them.
	values, checkpoints []byte
}

// parseVarchar takes the area of a varchar column of n tuples apart; ok is
// false when its parts do not fit the area exactly.
func parseVarchar(area []byte, n int) (c varchar, ok bool) {
	if len(area) == 0 {
		return varchar{}, false
	}
	if d := int(area[0]); d != runForm {
		if 1+offsetSize*d > len(area) {
			return varchar{}, false
		}
		c.ends = area[1 : 1+offsetSize*d]
		size := int(binary.LittleEndian.Uint16(c.ends[offsetSize*(d-1):]))
		rest := area[1+offsetSize*d:]
		if size+n != len(rest) {
			return varchar{}, false
		}
		c.entries, c.codes = rest[:size], rest[size:]
		return c, true
	}
	k := 0
	if n > 0 {
		k = (n - 1) / checkpointEvery
	}
	if 1+offsetSize*k > len(area) {
		return varchar{}, false
	}
	c.checkpoints, c.values = area[1:1+offsetSize*k], area[1+offsetSize*k:]
	return c, true
}

// entry returns dictionary entry j's bytes, or false when j is not an
// entry or its offsets do not hold one.
func (c *varchar) entry(j int) ([]byte, bool) {
	if offsetSize*j >= len(c.ends) {
		return nil, false
	}
	start, end := 0, int(binary.LittleEndian.Uint16(c.ends[offsetSize*j:]))
	if j > 0 {
		start = int(binary.LittleEndian.Uint16(c.ends[offsetSize*(j-1):]))
	}
	if start > end || end > len(c.entries) {
		return nil, false
	}
	return c.entries[start:end], true
}

// checkpoint returns where block b of the run's values starts.
func (c *varchar) checkpoint(b int) int {
	if b == 0 {
		return 0
	}
	return int(binary.LittleEndian.Uint16(c.checkpoints[offsetSize*(b-1):]))
}

// blockEnd returns where block b of the run's values must end: at the next
// checkpoint, or, for the last block, at the end of the values.
func (c *varchar) blockEnd(b int) int {
	if offsetSize*b < len(c.checkpoints) {
		return c.checkpoint(b + 1)
	}
	return len(c.values)
}

// nextValue steps over the run value at values[off:] and returns its bytes
// and where the next one starts; ok is false when it is not all there.
func nextValue(values []byte, off int) (s []byte, next int, ok bool) {
	if off < len(values) && values[off] < 0x80 { // a one-byte length
		start := off + 1
		next = start + int(values[off])
		if next > len(values) {
			return nil, 0, false
		}
		return values[start:next], next, true
	}
	if off > len(values) {
		return nil, 0, false
	}
	l, w := binary.Uvarint(values[off:])
	if w <= 0 || l > uint64(len(values)-off-w) {
		return nil, 0, false
	}
	start := off + w
	return values[start : start+int(l)], start + int(l), true
}

// NumTuples returns the number of tuples on the page.
func (v PageView) NumTuples() int { return v.n }

// Columns returns the view's column set.
func (v PageView) Columns() record.Columns { return v.cols }

// Tuple decodes tuple i into dst and returns it, reading each column of the
// view's set at the tuple's place: a fixed-width value is one word, a
// dictionary one is its entry, and a run value is found from the checkpoint
// before it (the block it is in is checked whole). dst's backing array is
// reused when it has room, and the varchars of the result are views into
// the page. A caller that keeps a value beyond the page Clones it.
func (v PageView) Tuple(dst record.Tuple, i int) (record.Tuple, error) {
	if i < 0 || i >= v.n {
		return nil, fmt.Errorf("heap: tuple %d out of range [0,%d)", i, v.n)
	}
	schema := v.cols.Schema()
	t := dst[:0]
	if cap(t) < schema.NumFields() {
		t = make(record.Tuple, 0, schema.NumFields())
	}
	t = t[:schema.NumFields()]
	for ord := range t {
		k := schema.Field(ord).Kind
		t[ord] = record.Value{Kind: k}
		if !v.cols.Reads(ord) {
			continue
		}
		area := v.area(ord)
		if k != record.KindString {
			u := binary.LittleEndian.Uint64(area[wordSize*i:])
			if k == record.KindFloat64 {
				t[ord].F = math.Float64frombits(u)
			} else {
				t[ord].I = int64(u)
			}
			continue
		}
		c, ok := parseVarchar(area, v.n)
		if !ok {
			return nil, errMalformed
		}
		if c.codes != nil {
			e, ok := c.entry(int(c.codes[i]))
			if !ok {
				return nil, errMalformed
			}
			t[ord].S = record.ViewString(e)
			continue
		}
		b := i / checkpointEvery
		off := c.checkpoint(b)
		for r := b * checkpointEvery; r < min(v.n, (b+1)*checkpointEvery); r++ {
			s, next, ok := nextValue(c.values, off)
			if !ok {
				return nil, errMalformed
			}
			if r == i {
				t[ord].S = record.ViewString(s)
			}
			off = next
		}
		if off != c.blockEnd(b) {
			return nil, errMalformed
		}
	}
	return t, nil
}

// AppendTo decodes every tuple on the page, in order, onto the end of dst
// under dst's column set, a column at a time: fixed-width columns by a
// strided copy of their words, dictionary columns by their codes (which dst
// keeps, see record.Vectors.Codes), and run columns value by value. On an
// error dst is left empty. dst's varchars view the page.
func (v PageView) AppendTo(dst *record.Vectors) error {
	cols := dst.Columns()
	schema := cols.Schema()
	if schema != v.cols.Schema() {
		return fmt.Errorf("heap: decoding a page of %v into vectors of %v", v.cols.Schema(), schema)
	}
	if v.n == 0 {
		return nil
	}
	from := dst.Extend(v.n)
	for ord := 0; ord < schema.NumFields(); ord++ {
		if !cols.Reads(ord) {
			continue
		}
		area := v.area(ord)
		if schema.Field(ord).Kind != record.KindString {
			dst.SetWords(ord, from, area)
			continue
		}
		if c, ok := parseVarchar(area, v.n); !ok || !c.appendTo(dst, ord, from, v.n) {
			dst.Reset(cols)
			return errMalformed
		}
	}
	return nil
}

// appendTo decodes the column's n values into varchar field ord of dst's
// rows from, from+1, …; it reports false where reading some tuple on its
// own would fail.
func (c *varchar) appendTo(dst *record.Vectors, ord, from, n int) bool {
	if c.codes != nil {
		dict := dst.Dict(ord, len(c.ends)/offsetSize)
		var bad [maxDict/64 + 1]uint64 // entries whose offsets do not hold one
		broken := false
		for j := range dict {
			e, ok := c.entry(j)
			if !ok {
				bad[j/64] |= 1 << (j % 64)
				broken = true
			}
			dict[j] = record.ViewString(e)
		}
		if broken {
			for _, code := range c.codes {
				if bad[code/64]&(1<<(code%64)) != 0 {
					return false
				}
			}
		}
		return dst.SetCodes(ord, from, c.codes)
	}
	strs := dst.Strings(ord)[from:][:n]
	off := 0
	for r := range strs {
		if r > 0 && r%checkpointEvery == 0 && off != c.checkpoint(r/checkpointEvery) {
			return false
		}
		s, next, ok := nextValue(c.values, off)
		if !ok {
			return false
		}
		strs[r], off = record.ViewString(s), next
	}
	return off == len(c.values)
}

// forEachScratch recycles ForEach's vectors and tuple: fn is an unknown
// function, so buffers local to ForEach would be heap-allocated on every
// call.
type forEachScratch struct {
	vec record.Vectors
	t   record.Tuple
}

var scratchPool = sync.Pool{New: func() any { return new(forEachScratch) }}

// ForEach decodes the page once, column by column, and calls fn with each
// tuple in order. Both the tuple and the bytes its varchars view are only
// fn's for the duration of the call: the tuple is overwritten by the next
// one and the varchars point into the page. fn must Clone whatever it
// retains.
func (v PageView) ForEach(fn func(record.Tuple) error) error {
	s := scratchPool.Get().(*forEachScratch)
	defer scratchPool.Put(s)
	s.vec.Reset(v.cols)
	if err := v.AppendTo(&s.vec); err != nil {
		return err
	}
	for r := 0; r < s.vec.Len(); r++ {
		s.t = s.vec.Row(s.t, r)
		if err := fn(s.t); err != nil {
			return err
		}
	}
	return nil
}
