package heaptest

import (
	"encoding/binary"
	"fmt"
	"math"

	"scanshare/internal/disk"
	"scanshare/internal/record"
)

// RefTable is what RefLoad produced for one table: its pages as the device
// holds them, its row count, and the per-column load statistics.
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

// RefLoad is the reference table load, the oracle the engine's loader is
// held to byte for byte. It does everything the plain way: each row is
// observed into RefColStats, sized with record.EncodedSize and then encoded
// with record.Encode into the page under construction; a full page is
// assembled by appending header, slots and data; and every page is stored
// with the copying disk.Device.Write, then read back. The rows must all be
// valid: the reference does not define what a rejected row leaves behind.
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
		if data, err = record.Encode(data, schema, t); err != nil {
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
