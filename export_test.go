package scanshare

import (
	"fmt"

	"scanshare/internal/exec"
	"scanshare/internal/exec/exectest"
	"scanshare/internal/heap"
)

// TablePages returns the bytes of every page of t as the device holds them,
// for tests that compare two loads byte for byte.
func TablePages(t *Table) ([][]byte, error) {
	pages := make([][]byte, t.NumPages())
	for i := range pages {
		pid, err := t.tbl.PageID(i)
		if err != nil {
			return nil, err
		}
		if pages[i], err = t.eng.dev.ReadRaw(pid); err != nil {
			return nil, err
		}
	}
	return pages, nil
}

// OracleRows computes the rows of q, a single-table aggregation, with the
// tuple-at-a-time fold the exec page kernel replaced (exectest): every page
// of q's range in page order, every column decoded, q's predicate, then
// the fold. That is what a Baseline run of q returns, row order and float
// summation order included.
func OracleRows(q *Query) ([]Tuple, error) {
	root, err := q.plan(false)
	if err != nil {
		return nil, err
	}
	agg, ok := root.(*exec.Aggregate)
	if !ok || q.join != nil || len(q.project) > 0 {
		return nil, fmt.Errorf("query %q is not a single-table aggregation", q.label())
	}
	start, end, err := q.pageRange()
	if err != nil {
		return nil, err
	}
	pages, err := TablePages(q.table)
	if err != nil {
		return nil, err
	}
	tb := exectest.NewTable(agg.GroupBy, agg.Aggs)
	var scratch Tuple
	for _, data := range pages[start:end] {
		view, err := heap.View(q.table.Schema(), data)
		if err != nil {
			return nil, err
		}
		if scratch, err = exectest.FoldPage(tb, view, q.pred, scratch); err != nil {
			return nil, err
		}
	}
	return tb.Rows(), nil
}
