package exec

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"scanshare/internal/heap"
	"scanshare/internal/record"
)

// Shared aggregation for push-based scan delivery.
//
// N concurrent GROUP BY queries over one table traditionally run N scans and
// N private hash tables. With push delivery the N scans already collapse into
// one physical reader; this file collapses the aggregation side: a
// GroupByConsumer folds the tuples of each delivered page straight into a
// hash table from the scan's OnPage callback, either a private per-consumer
// aggTable or one SharedAggState — a mutex-striped table all consumers of the
// same query shape fold into, so the group state too exists once per table
// rather than once per query ("Global Hash Tables Strike Back!", PAPERS.md).

// SharedAggState is one GROUP BY hash table folded into by many concurrent
// consumers. Groups are partitioned over mutex-striped sub-tables by key
// hash — the same key always lands on the same stripe, so stripes hold
// disjoint key sets and merge trivially at the end.
type SharedAggState struct {
	groupBy []int
	aggs    []AggSpec
	stripes []aggStripe
	folds   atomic.Int64

	// Page claims keep the shared table exactly-once even though every
	// sharing consumer is delivered every page: the first consumer to
	// claim a page folds its tuples, the rest skip it. Requires all
	// sharers to scan the same footprint (the caller's shape key).
	claimMu sync.Mutex
	claimed map[int]struct{}
}

type aggStripe struct {
	mu  sync.Mutex
	tbl *aggTable
}

// NewSharedAggState builds a shared table for the given query shape.
// stripes <= 0 picks 8.
func NewSharedAggState(groupBy []int, aggs []AggSpec, stripes int) (*SharedAggState, error) {
	if len(groupBy) == 0 && len(aggs) == 0 {
		return nil, fmt.Errorf("exec: shared aggregation with nothing to compute")
	}
	if stripes <= 0 {
		stripes = 8
	}
	s := &SharedAggState{
		groupBy: groupBy,
		aggs:    aggs,
		stripes: make([]aggStripe, stripes),
		claimed: make(map[int]struct{}),
	}
	for i := range s.stripes {
		s.stripes[i].tbl = newAggTable(groupBy, aggs)
	}
	return s, nil
}

// Fold accumulates one tuple. Safe for concurrent use; only the owning
// stripe is locked.
func (s *SharedAggState) Fold(t record.Tuple) error {
	var held *aggStripe
	err := s.fold(&held, t)
	held.release()
	if err == nil {
		s.folds.Add(1)
	}
	return err
}

// fold is Fold for a run of tuples: it neither counts the fold (a consumer
// adds a page's folds at once) nor unlocks the stripe it folded into, which
// it leaves in *held — when the next tuple of the run lands on the same
// stripe the mutex is not touched. The caller releases *held after the run.
// The group key is encoded once: it picks the stripe, and the stripe's table
// looks the group up by the same bytes.
func (s *SharedAggState) fold(held **aggStripe, t record.Tuple) error {
	var kb [64]byte
	key, err := appendGroupKey(kb[:0], s.groupBy, t)
	if err != nil {
		return err
	}
	// The high half of hash x stripes is a uniform stripe number without a
	// division.
	n, _ := bits.Mul64(fnv64(key), uint64(len(s.stripes)))
	st := &s.stripes[n]
	if st != *held {
		(*held).release()
		st.mu.Lock()
		*held = st
	}
	return st.tbl.foldKeyed(key, t)
}

// release unlocks a stripe a run of folds left locked; nil is no stripe.
func (st *aggStripe) release() {
	if st != nil {
		st.mu.Unlock()
	}
}

// Folds returns how many tuples have been folded in so far.
func (s *SharedAggState) Folds() int64 { return s.folds.Load() }

// ClaimPage reserves pageNo for the calling consumer. Exactly one of the
// sharing consumers wins each page and folds its tuples; the others skip it.
func (s *SharedAggState) ClaimPage(pageNo int) bool {
	s.claimMu.Lock()
	_, dup := s.claimed[pageNo]
	if !dup {
		s.claimed[pageNo] = struct{}{}
	}
	s.claimMu.Unlock()
	return !dup
}

// Rows merges the stripes and returns the deterministic sorted result rows.
// Call it after every folding consumer has finished.
func (s *SharedAggState) Rows() []record.Tuple {
	var groups []keyedRow
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		groups = st.tbl.appendRows(groups) // stripe key sets are disjoint
		st.mu.Unlock()
	}
	return sortedRows(groups, s.groupBy, s.aggs)
}

// GroupByConsumer folds the tuples of scanned heap pages into GROUP BY state
// from a realtime scan's OnPage callback. Zero value plus the exported
// fields is ready to use; OnPage and Results are called from the one scan
// goroutine that owns the consumer (SharedAggState handles cross-consumer
// concurrency when set).
type GroupByConsumer struct {
	// Schema decodes the table's heap pages. Required.
	Schema *record.Schema
	// Pred, when set, filters tuples before aggregation. The tuple and the
	// bytes its varchars view belong to the page being folded: Pred must
	// not retain either. Setting it makes the consumer decode every column,
	// because what an opaque function reads cannot be known.
	Pred func(record.Tuple) bool
	// GroupBy and Aggs define the query shape (ordinals into the schema).
	GroupBy []int
	Aggs    []AggSpec
	// Shared, when set, folds into the cross-consumer striped table
	// instead of a private one; Results then returns nil rows (read the
	// shared state once, via SharedAggState.Rows).
	Shared *SharedAggState

	cols    record.Columns // what OnPage decodes; compiled by the first page
	scratch record.Tuple
	local   *aggTable
	pages   int64
	err     error
}

// columns compiles the set of columns the consumer's pages are decoded for:
// GroupBy and the inputs of the non-COUNT Aggs, or everything under a Pred.
func (c *GroupByConsumer) columns() (record.Columns, error) {
	if c.Pred != nil {
		return record.AllColumns(c.Schema), nil
	}
	ords := append([]int(nil), c.GroupBy...)
	for _, spec := range c.Aggs {
		if spec.Kind != AggCount {
			ords = append(ords, spec.Ordinal)
		}
	}
	return record.SelectColumns(c.Schema, ords...)
}

// OnPage folds every tuple of one heap page; it has the realtime
// ScanSpec.OnPage signature. data is only read during the call — what the
// aggregation keeps of it is cloned — so the caller may reuse the buffer.
// Errors latch: the first one is kept and later pages are ignored, surfacing
// through Results.
func (c *GroupByConsumer) OnPage(pageNo int, data []byte) {
	if c.err != nil {
		return
	}
	if c.Shared != nil && !c.Shared.ClaimPage(pageNo) {
		return // another sharing consumer already folded this page
	}
	if c.cols.Schema() == nil {
		var err error
		if c.cols, err = c.columns(); err != nil {
			c.err = fmt.Errorf("exec: group-by consumer: %w", err)
			return
		}
		if c.Shared == nil {
			c.local = newAggTable(c.GroupBy, c.Aggs)
		}
	}
	view, err := heap.ViewColumns(c.cols, data)
	if err != nil {
		c.err = fmt.Errorf("exec: page %d: %w", pageNo, err)
		return
	}
	c.pages++
	if c.Shared == nil {
		c.scratch, c.err = foldPage(c.local, view, c.Pred, c.scratch)
		return
	}
	var folded int64
	var held *aggStripe // the shared stripe the previous fold left locked
	for i := 0; i < view.NumTuples(); i++ {
		t, err := view.Tuple(c.scratch, i)
		if err != nil {
			c.err = err
			break
		}
		c.scratch = t
		if c.Pred != nil {
			held.release() // Pred is the caller's code: never run it under a lock
			held = nil
			if !c.Pred(t) {
				continue
			}
		}
		if err = c.Shared.fold(&held, t); err != nil {
			c.err = err
			break
		}
		folded++
	}
	held.release()
	c.Shared.folds.Add(folded)
}

// Pages returns how many pages the consumer folded.
func (c *GroupByConsumer) Pages() int64 { return c.pages }

// Results returns the consumer's sorted result rows, or the first error its
// pages produced. With Shared set the rows live in the shared state and nil
// is returned here.
func (c *GroupByConsumer) Results() ([]record.Tuple, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.Shared != nil {
		return nil, nil
	}
	tb := c.local
	if tb == nil {
		tb = newAggTable(c.GroupBy, c.Aggs)
	}
	return tb.rows(), nil
}

// EncodeRows renders result rows as deterministic bytes (the group-key
// encoding per value, one row per line), for byte-identical comparison
// across execution modes.
func EncodeRows(rows []record.Tuple) []byte {
	var out []byte
	for _, r := range rows {
		for _, v := range r {
			out = appendKey(out, v)
		}
		out = append(out, '\n')
	}
	return out
}

// fnv64 is FNV-1a over b, allocation-free.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
