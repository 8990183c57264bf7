package heaptest

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"scanshare/internal/disk"
	"scanshare/internal/heap"
	"scanshare/internal/record"
	"scanshare/internal/record/recordtest"
)

// RefTable is what RefLoad produced for one table: its row pages as the
// device holds them, its row count, and the per-column load statistics.
type RefTable struct {
	Pages  [][]byte
	Tuples int64
	Stats  []RefColStats
}

// SameValue is exact equality, for holding statistics to RefColStats: same
// kind, integer, float bits (NaN equals NaN, -0 differs from +0) and string.
func SameValue(a, b record.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

// RefColStats are one column's load statistics, kept the straightforward
// way: tagged Values ordered by record.Compare.
type RefColStats struct {
	Seen     bool
	Min, Max record.Value
	Monotone bool
	prev     record.Value
}

func (c *RefColStats) observe(v record.Value) {
	if !c.Seen {
		c.Seen, c.Monotone = true, true
		c.Min, c.Max, c.prev = v, v, v
		return
	}
	if record.Compare(v, c.Min) < 0 {
		c.Min = v
	}
	if record.Compare(v, c.Max) > 0 {
		c.Max = v
	}
	if c.Monotone && record.Compare(v, c.prev) < 0 {
		c.Monotone = false
	}
	c.prev = v
}

// RefLoad is the reference table load, the oracle the column-major pages of
// heap.Builder are held to. It does everything the plain way, in the row
// layout the page boundaries are defined by: each row is observed into
// RefColStats, sized with record.EncodedSize and then encoded with
// recordtest.Encode into the page under construction, a 2-byte slot per
// row; a full page is assembled by appending the tuple count, slots and
// data; and every page is stored with the copying disk.Device.Write, then
// read back. The rows must all be valid: the reference does not define what
// a rejected row leaves behind.
func RefLoad(dev *disk.Device, schema *record.Schema, load func(add func(record.Tuple) error) error) (*RefTable, error) {
	pageSize := dev.Model().PageSize
	ref := &RefTable{Stats: make([]RefColStats, schema.NumFields())}
	var pages [][]byte
	var offsets []uint16
	var data []byte
	flush := func() {
		page := make([]byte, 0, 2+2*len(offsets)+len(data))
		page = binary.LittleEndian.AppendUint16(page, uint16(len(offsets)))
		for _, off := range offsets {
			page = binary.LittleEndian.AppendUint16(page, off)
		}
		pages = append(pages, append(page, data...))
		offsets, data = offsets[:0], data[:0]
	}
	add := func(t record.Tuple) error {
		if len(t) == len(ref.Stats) {
			for i := range t {
				ref.Stats[i].observe(t[i])
			}
		}
		size, err := record.EncodedSize(schema, t)
		if err != nil {
			return err
		}
		if size+2 > pageSize-2 {
			return fmt.Errorf("heaptest: tuple of %d bytes does not fit a %d-byte page", size, pageSize)
		}
		if 2+(len(offsets)+1)*2+len(data)+size > pageSize {
			flush()
		}
		offsets = append(offsets, uint16(len(data)))
		if data, err = recordtest.Encode(data, schema, t); err != nil {
			return err
		}
		ref.Tuples++
		return nil
	}
	if err := load(add); err != nil {
		return nil, err
	}
	if len(offsets) > 0 {
		flush()
	}
	if len(pages) == 0 {
		return nil, fmt.Errorf("heaptest: no tuples")
	}
	first, err := dev.Allocate(len(pages))
	if err != nil {
		return nil, err
	}
	for i, page := range pages {
		pid := first + disk.PageID(i)
		if err := dev.Write(pid, page); err != nil {
			return nil, err
		}
		stored, err := dev.ReadRaw(pid)
		if err != nil {
			return nil, err
		}
		ref.Pages = append(ref.Pages, stored)
	}
	return ref, nil
}

// Rows decodes row page i with recordtest.Decode.
func (r *RefTable) Rows(schema *record.Schema, i int) ([]record.Tuple, error) {
	page := r.Pages[i]
	n := int(binary.LittleEndian.Uint16(page))
	data := page[2+2*n:]
	rows := make([]record.Tuple, n)
	for j := range rows {
		t, _, err := recordtest.Decode(nil, schema, data[binary.LittleEndian.Uint16(page[2+2*j:]):])
		if err != nil {
			return nil, fmt.Errorf("reference page %d tuple %d: %w", i, j, err)
		}
		rows[j] = t
	}
	return rows, nil
}

// SameRows reports whether a and b are the same rows, value for value by
// SameValue: rows whose row encodings are equal byte for byte.
func SameRows(a, b []record.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !SameValue(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// PageRows reads every tuple of a column-major page through
// heap.PageView.Tuple.
func PageRows(schema *record.Schema, page []byte) ([]record.Tuple, error) {
	v, err := heap.View(schema, page)
	if err != nil {
		return nil, err
	}
	rows := make([]record.Tuple, v.NumTuples())
	for i := range rows {
		if rows[i], err = v.Tuple(nil, i); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// ColumnPageSize is the size of the one column-major page heap.Builder lays
// rows out in when its pages are large enough to hold them.
func ColumnPageSize(schema *record.Schema, rows []record.Tuple) (int, error) {
	dev := disk.MustNew(disk.Model{SeekTime: time.Millisecond, TransferPerPage: time.Millisecond, PageSize: 1 << 16}, 0)
	b, err := heap.NewBuilder(dev, "size", schema)
	if err != nil {
		return 0, err
	}
	for _, t := range rows {
		if err := b.Append(t); err != nil {
			return 0, err
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		return 0, err
	}
	if tbl.NumPages() != 1 {
		return 0, fmt.Errorf("%d rows took %d pages", len(rows), tbl.NumPages())
	}
	page, err := dev.ReadRaw(tbl.FirstPage())
	return len(page), err
}

// CheckRowBoundaries holds the column-major pages of a table to the row
// pages RefLoad made of the same rows. Each reference page must be one page
// of the table holding the same rows; or split into pages that each hold
// the longest run of its remaining rows that fits pageSize. An unsplit page may be larger than
// its row page by no more than its header and forms outweigh the row
// page's slots: 2 bytes per column against 2 per tuple, and per varchar a
// form byte and the run form's checkpoints. It returns how many reference
// pages were split, and how many pages are larger than their row page.
func CheckRowBoundaries(schema *record.Schema, pageSize int, pages [][]byte, ref *RefTable) (splits, larger int, err error) {
	varchars := 0
	for i := 0; i < schema.NumFields(); i++ {
		if schema.Field(i).Kind == record.KindString {
			varchars++
		}
	}
	next := 0 // the table's next page
	for i := range ref.Pages {
		want, err := ref.Rows(schema, i)
		if err != nil {
			return splits, larger, err
		}
		n, split := len(want), false
		slack := 2*schema.NumFields() - 2*n + varchars*(1+2*((n-1)/16))
		for len(want) > 0 {
			if next == len(pages) {
				return splits, larger, fmt.Errorf("reference page %d: the table has only %d pages", i, len(pages))
			}
			page := pages[next]
			got, err := PageRows(schema, page)
			if err != nil {
				return splits, larger, fmt.Errorf("page %d: %w", next, err)
			}
			switch {
			case len(page) > pageSize:
				return splits, larger, fmt.Errorf("page %d is %d bytes, over %d", next, len(page), pageSize)
			case len(got) == 0 || len(got) > len(want) || !SameRows(got, want[:len(got)]):
				return splits, larger, fmt.Errorf("page %d does not hold the next %d rows of reference page %d", next, len(got), i)
			case len(got) == n:
				if len(page) > len(ref.Pages[i])+max(slack, 0) {
					return splits, larger, fmt.Errorf("page %d of %d tuples is %d bytes, its row page %d", next, n, len(page), len(ref.Pages[i]))
				}
				if len(page) > len(ref.Pages[i]) {
					larger++
				}
			case len(got) < len(want):
				// A split: the page holds the longest run that fits.
				longer, err := ColumnPageSize(schema, want[:len(got)+1])
				if err != nil {
					return splits, larger, err
				}
				if longer <= pageSize {
					return splits, larger, fmt.Errorf("page %d ends after %d tuples, but %d fit", next, len(got), len(got)+1)
				}
			}
			split = split || len(got) < n
			want = want[len(got):]
			next++
		}
		if split {
			splits++
		}
	}
	if next != len(pages) {
		return splits, larger, fmt.Errorf("the table has %d pages, the reference's rows fill %d", len(pages), next)
	}
	return splits, larger, nil
}
