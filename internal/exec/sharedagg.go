package exec

import (
	"fmt"
	"math/bits"
	"slices"
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

	// The shape the stripes fold, compiled against the schema of the first
	// consumer's table; every later consumer must fold the same table.
	shapeMu sync.Mutex
	shape   *aggShape

	// Page claims keep the shared table exactly-once even though every
	// sharing consumer is delivered every page: the first consumer to
	// claim a page folds its tuples, the rest skip it. Requires all
	// sharers to scan the same footprint (the caller's shape key).
	claimMu sync.Mutex
	claimed []uint64 // bit p%64 of word p/64: page p is claimed
}

type aggStripe struct {
	mu  sync.Mutex
	tbl groupTable
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
	return &SharedAggState{groupBy: groupBy, aggs: aggs, stripes: make([]aggStripe, stripes)}, nil
}

// bind returns the shape the stripes fold, compiling it over schema for the
// first consumer.
func (s *SharedAggState) bind(schema *record.Schema) (*aggShape, error) {
	s.shapeMu.Lock()
	defer s.shapeMu.Unlock()
	if s.shape == nil {
		s.shape = compileShape(schema, s.groupBy, s.aggs)
		for i := range s.stripes {
			st := &s.stripes[i]
			st.mu.Lock()
			st.tbl = groupTable{sh: s.shape}
			st.mu.Unlock()
		}
	} else if s.shape.schema != schema {
		return nil, fmt.Errorf("exec: shared aggregation over schema %v, already folding %v", schema, s.shape.schema)
	}
	return s.shape, nil
}

// foldPage folds the rows of view that k's predicate keeps. It computes the
// page's group ids once, in a page-local index, and locks the stripes that
// own the page's groups, in stripe order. Under the locks it copies those
// groups' cells out, folds the page into the copies as a private table
// would, in row order, and copies them back: each group takes the page's
// rows in row order, onto its running state, as in the tuple loop.
func (s *SharedAggState) foldPage(k *kernel, view heap.PageView) error {
	err := k.loadPage(view)
	n, ferr := k.batch()
	if ferr != nil {
		return ferr
	}
	if n == 0 {
		return err
	}
	k.local.reset()
	k.local.assign(k) // k.gids: page-local ids; k.fresh: each one's first row

	ns, nl := len(s.stripes), len(k.fresh)
	k.shared = slices.Grow(k.shared[:0], 2*nl+ns)[:2*nl+ns]
	stripeOf, stripeID, locked := k.shared[:nl], k.shared[nl:2*nl], k.shared[2*nl:]
	clear(locked)
	for lg, r := range k.fresh {
		packed, wide := k.keyOf(int(r), k.keyBuf)
		h := mix64(packed)
		if wide != nil {
			h = fnv64(wide)
		}
		st, _ := bits.Mul64(h, uint64(ns)) // the high half of hash x stripes: uniform, no division
		stripeOf[lg], locked[st] = int32(st), 1
	}
	for i := range s.stripes {
		if locked[i] != 0 {
			s.stripes[i].mu.Lock()
		}
	}
	for lg, r := range k.fresh {
		packed, wide := k.keyOf(int(r), k.keyBuf)
		stripeID[lg] = s.stripes[stripeOf[lg]].tbl.group(packed, wide, &k.vec, int(r))
	}
	na := len(k.sh.ops)
	page := &k.page
	page.cells = slices.Grow(page.cells[:0], nl*na)
	for lg, g := range stripeID {
		page.cells = append(page.cells, s.stripes[stripeOf[lg]].tbl.cells[int(g)*na:][:na]...)
	}
	page.fold(&k.vec, k.rows[:n], k.gids)
	for lg, g := range stripeID {
		copy(s.stripes[stripeOf[lg]].tbl.cells[int(g)*na:][:na], page.cells[lg*na:])
	}
	for i := range s.stripes {
		if locked[i] != 0 {
			s.stripes[i].mu.Unlock()
		}
	}
	s.folds.Add(int64(n))
	return err
}

// Folds returns how many tuples have been folded in so far.
func (s *SharedAggState) Folds() int64 { return s.folds.Load() }

// ClaimPage reserves pageNo, which is not negative, for the calling
// consumer. Exactly one of the sharing consumers wins each page and folds
// its tuples; the others skip it.
func (s *SharedAggState) ClaimPage(pageNo int) bool {
	w, bit := pageNo/64, uint64(1)<<(pageNo%64)
	s.claimMu.Lock()
	defer s.claimMu.Unlock()
	if w >= len(s.claimed) {
		n := len(s.claimed)
		s.claimed = slices.Grow(s.claimed, w+1-n)[:w+1]
		clear(s.claimed[n:])
	}
	if s.claimed[w]&bit != 0 {
		return false
	}
	s.claimed[w] |= bit
	return true
}

// Rows merges the stripes and returns the deterministic sorted result rows.
// Call it after every folding consumer has finished.
func (s *SharedAggState) Rows() []record.Tuple {
	tables := make([]*groupTable, len(s.stripes))
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		if st.tbl.sh != nil { // nil: no page was ever folded
			tables[i] = &st.tbl // stripe key sets are disjoint
		}
		st.mu.Unlock()
	}
	return sortedRows(tables, s.groupBy, s.aggs)
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
	// not retain either. Setting it makes the consumer decode every column
	// for it, because what an opaque function reads cannot be known.
	Pred func(record.Tuple) bool
	// GroupBy and Aggs define the query shape (ordinals into the schema).
	GroupBy []int
	Aggs    []AggSpec
	// Shared, when set, folds into the cross-consumer striped table
	// instead of a private one; Results then returns nil rows (read the
	// shared state once, via SharedAggState.Rows).
	Shared *SharedAggState

	cols  record.Columns // what OnPage's page views decode for Pred; compiled by the first page
	k     kernel         // compiled by the first page
	local groupTable
	pages int64
	err   error
}

// columns compiles the set of columns the consumer's pages are viewed with:
// GroupBy and the inputs of the non-COUNT Aggs, or everything under a Pred.
func (c *GroupByConsumer) columns() (record.Columns, error) {
	if c.Pred != nil {
		return record.AllColumns(c.Schema), nil
	}
	cols, err := record.SelectColumns(c.Schema, c.GroupBy...)
	for _, spec := range c.Aggs {
		if err != nil {
			break
		}
		if spec.Kind != AggCount {
			var in record.Columns
			in, err = record.SelectColumns(c.Schema, spec.Ordinal)
			cols = cols.Union(in)
		}
	}
	return cols, err
}

// compile readies the consumer for its first page.
func (c *GroupByConsumer) compile() error {
	var err error
	if c.cols, err = c.columns(); err != nil {
		return fmt.Errorf("exec: group-by consumer: %w", err)
	}
	var sh *aggShape
	if c.Shared != nil {
		if sh, err = c.Shared.bind(c.Schema); err != nil {
			return err
		}
	} else {
		sh = compileShape(c.Schema, c.GroupBy, c.Aggs)
		c.local = groupTable{sh: sh}
	}
	c.k.init(sh, c.Pred)
	return nil
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
	if c.Shared != nil {
		if pageNo < 0 {
			c.err = fmt.Errorf("exec: page %d: negative page number", pageNo)
			return
		}
		if !c.Shared.ClaimPage(pageNo) {
			return // another sharing consumer already folded this page
		}
	}
	if c.k.sh == nil {
		if c.err = c.compile(); c.err != nil {
			return
		}
	}
	view, err := heap.ViewColumns(c.cols, data)
	if err != nil {
		c.err = fmt.Errorf("exec: page %d: %w", pageNo, err)
		return
	}
	c.pages++
	if c.Shared == nil {
		c.err = c.k.foldPage(view, &c.local)
	} else {
		c.err = c.Shared.foldPage(&c.k, view)
	}
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
	var tb *groupTable
	if c.local.sh != nil {
		tb = &c.local
	}
	return sortedRows([]*groupTable{tb}, c.GroupBy, c.Aggs), nil
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
