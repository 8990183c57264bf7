// Package exectest keeps the tuple-at-a-time aggregation that exec's page
// kernel replaced, as the oracle the kernel is tested against: decode one
// tuple, test the predicate, encode the group key, look it up in a map, and
// switch over the aggregates. It imports exec only for its types and
// shares none of the kernel's code.
package exectest

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"scanshare/internal/exec"
	"scanshare/internal/heap"
	"scanshare/internal/record"
)

// Table is one aggregation folded a tuple at a time: fold tuples in, take
// rows sorted by key encoding out.
type Table struct {
	groupBy []int
	aggs    []exec.AggSpec
	groups  map[string]int // encoded group key -> group number; nil when ungrouped
	keys    []record.Value // len(groupBy) values per group, owned (cloned)
	cells   []cell         // len(aggs) cells per group
	keyBuf  []byte
}

// cell is the running state of one aggregate of one group.
type cell struct {
	count int64
	sum   float64
	ext   record.Value // running MIN or MAX, owned (cloned); set once count > 0
}

// NewTable returns an empty aggregation of the given shape.
func NewTable(groupBy []int, aggs []exec.AggSpec) *Table {
	tb := &Table{groupBy: groupBy, aggs: aggs}
	if len(groupBy) > 0 {
		tb.groups = make(map[string]int)
	}
	return tb
}

// Fold accumulates one tuple into its group. t may view memory the caller
// reuses: what the table keeps of it is cloned.
func (tb *Table) Fold(t record.Tuple) error {
	var key []byte
	if len(tb.groupBy) > 0 {
		key = tb.keyBuf[:0]
		for _, ord := range tb.groupBy {
			if ord < 0 || ord >= len(t) {
				return fmt.Errorf("exec: group-by ordinal %d out of range", ord)
			}
			key = appendKey(key, t[ord])
		}
		tb.keyBuf = key
	}
	g := 0
	if tb.groups == nil {
		if len(tb.cells) == 0 {
			tb.cells = make([]cell, len(tb.aggs))
		}
	} else if n, ok := tb.groups[string(key)]; ok {
		g = n
	} else {
		g = len(tb.groups)
		tb.groups[string(key)] = g
		for _, ord := range tb.groupBy {
			tb.keys = append(tb.keys, t[ord].Clone())
		}
		tb.cells = append(tb.cells, make([]cell, len(tb.aggs))...)
	}
	cells := tb.cells[g*len(tb.aggs):][:len(tb.aggs)]
	for i, spec := range tb.aggs {
		c := &cells[i]
		if spec.Kind == exec.AggCount {
			c.count++
			continue
		}
		if spec.Ordinal < 0 || spec.Ordinal >= len(t) {
			return fmt.Errorf("exec: aggregate ordinal %d out of range", spec.Ordinal)
		}
		v := t[spec.Ordinal]
		switch spec.Kind {
		case exec.AggSum, exec.AggAvg:
			c.sum += numeric(v)
		case exec.AggMin:
			if c.count == 0 || record.Compare(v, c.ext) < 0 {
				c.ext = v.Clone()
			}
		case exec.AggMax:
			if c.count == 0 || record.Compare(v, c.ext) > 0 {
				c.ext = v.Clone()
			}
		default:
			return fmt.Errorf("exec: unknown aggregate %v", spec.Kind)
		}
		c.count++
	}
	return nil
}

// Rows finishes the table: one row per group, sorted by key encoding, and
// SQL's row of zeros for an ungrouped aggregation of nothing.
func (tb *Table) Rows() []record.Tuple {
	type keyed struct {
		key string
		row record.Tuple
	}
	var groups []keyed
	if tb.groups == nil {
		if len(tb.cells) > 0 {
			groups = append(groups, keyed{"", tb.row(0)})
		}
	}
	for key, g := range tb.groups {
		groups = append(groups, keyed{key, tb.row(g)})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].key < groups[j].key })
	var rows []record.Tuple
	for _, g := range groups {
		rows = append(rows, g.row)
	}
	if len(rows) == 0 && len(tb.groupBy) == 0 {
		row := record.Tuple{}
		for _, spec := range tb.aggs {
			if spec.Kind == exec.AggCount {
				row = append(row, record.Int64(0))
			} else {
				row = append(row, record.Float64(0))
			}
		}
		rows = append(rows, row)
	}
	return rows
}

func (tb *Table) row(g int) record.Tuple {
	nk, na := len(tb.groupBy), len(tb.aggs)
	row := append(record.Tuple(nil), tb.keys[g*nk:][:nk]...)
	for i, spec := range tb.aggs {
		c := &tb.cells[g*na+i]
		switch spec.Kind {
		case exec.AggCount:
			row = append(row, record.Int64(c.count))
		case exec.AggSum:
			row = append(row, record.Float64(c.sum))
		case exec.AggAvg:
			avg := 0.0
			if c.count > 0 {
				avg = c.sum / float64(c.count)
			}
			row = append(row, record.Float64(avg))
		default:
			row = append(row, c.ext)
		}
	}
	return row
}

// FoldPage decodes each tuple of view, keeps it if pred does (or pred is
// nil) and folds it into tb, stopping at the first error. scratch is the
// decode buffer, returned for the next page.
func FoldPage(tb *Table, view heap.PageView, pred func(record.Tuple) bool, scratch record.Tuple) (record.Tuple, error) {
	for i := 0; i < view.NumTuples(); i++ {
		t, err := view.Tuple(scratch, i)
		if err != nil {
			return scratch, err
		}
		scratch = t
		if pred != nil && !pred(t) {
			continue
		}
		if err := tb.Fold(t); err != nil {
			return scratch, err
		}
	}
	return scratch, nil
}

// Consumer is a private exec.GroupByConsumer on the tuple loop: the same
// fields, the same column set, the same errors.
type Consumer struct {
	Schema  *record.Schema
	Pred    func(record.Tuple) bool
	GroupBy []int
	Aggs    []exec.AggSpec

	cols    record.Columns
	scratch record.Tuple
	tb      *Table
	err     error
}

// OnPage folds one heap page; errors latch.
func (c *Consumer) OnPage(pageNo int, data []byte) {
	if c.err != nil {
		return
	}
	if c.tb == nil {
		c.cols = record.AllColumns(c.Schema)
		if c.Pred == nil {
			ords := append([]int(nil), c.GroupBy...)
			for _, spec := range c.Aggs {
				if spec.Kind != exec.AggCount {
					ords = append(ords, spec.Ordinal)
				}
			}
			var err error
			if c.cols, err = record.SelectColumns(c.Schema, ords...); err != nil {
				c.err = fmt.Errorf("exec: group-by consumer: %w", err)
				return
			}
		}
		c.tb = NewTable(c.GroupBy, c.Aggs)
	}
	view, err := heap.ViewColumns(c.cols, data)
	if err != nil {
		c.err = fmt.Errorf("exec: page %d: %w", pageNo, err)
		return
	}
	c.scratch, c.err = FoldPage(c.tb, view, c.Pred, c.scratch)
}

// Results returns the sorted rows, or the first error.
func (c *Consumer) Results() ([]record.Tuple, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.tb == nil {
		return NewTable(c.GroupBy, c.Aggs).Rows(), nil
	}
	return c.tb.Rows(), nil
}

func numeric(v record.Value) float64 {
	switch v.Kind {
	case record.KindInt64, record.KindDate:
		return float64(v.I)
	case record.KindFloat64:
		return v.F
	default:
		return 0
	}
}

// appendKey is the group-key encoding: the kind, then 8 little-endian bytes
// or a varchar's bytes and a 0.
func appendKey(dst []byte, v record.Value) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case record.KindString:
		dst = append(dst, v.S...)
		dst = append(dst, 0)
	default:
		bits := uint64(v.I)
		if v.Kind == record.KindFloat64 {
			bits = math.Float64bits(v.F)
		}
		dst = binary.LittleEndian.AppendUint64(dst, bits)
	}
	return dst
}
