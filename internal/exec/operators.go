package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"scanshare/internal/heap"
	"scanshare/internal/record"
)

// Filter passes through the tuples of Input for which Pred returns true.
// Predicate CPU cost is modelled by the scan's CPUWeight, not charged here,
// so predicates themselves should be cheap Go code. Pred sees the input's
// tuple under the Operator contract: it must not retain it.
type Filter struct {
	Input Operator
	Pred  func(record.Tuple) bool

	env *Env
}

// Open opens the input.
func (f *Filter) Open(env *Env) error {
	if f.Input == nil || f.Pred == nil {
		return fmt.Errorf("exec: Filter needs Input and Pred")
	}
	f.env = env
	return f.Input.Open(env)
}

// Next returns the next tuple satisfying the predicate.
func (f *Filter) Next() (record.Tuple, bool, error) {
	for {
		t, ok, err := f.Input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if f.Pred(t) {
			return t, true, nil
		}
	}
}

// Close closes the input.
func (f *Filter) Close() error { return f.Input.Close() }

// Project emits, for every input tuple, the values at the given ordinals.
type Project struct {
	Input    Operator
	Ordinals []int

	out record.Tuple
}

// Open opens the input.
func (p *Project) Open(env *Env) error {
	if p.Input == nil {
		return fmt.Errorf("exec: Project needs Input")
	}
	if len(p.Ordinals) == 0 {
		return fmt.Errorf("exec: Project with no ordinals")
	}
	return p.Input.Open(env)
}

// Next projects the next input tuple. The returned tuple is reused.
func (p *Project) Next() (record.Tuple, bool, error) {
	t, ok, err := p.Input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	p.out = p.out[:0]
	for _, ord := range p.Ordinals {
		if ord < 0 || ord >= len(t) {
			return nil, false, fmt.Errorf("exec: projection ordinal %d out of range", ord)
		}
		p.out = append(p.out, t[ord])
	}
	return p.out, true, nil
}

// Close closes the input.
func (p *Project) Close() error { return p.Input.Close() }

// Limit emits at most N tuples of its input.
type Limit struct {
	Input Operator
	N     int64

	seen int64
}

// Open opens the input.
func (l *Limit) Open(env *Env) error {
	if l.Input == nil {
		return fmt.Errorf("exec: Limit needs Input")
	}
	if l.N < 0 {
		return fmt.Errorf("exec: negative limit %d", l.N)
	}
	l.seen = 0
	return l.Input.Open(env)
}

// Next forwards tuples until the limit is reached.
func (l *Limit) Next() (record.Tuple, bool, error) {
	if l.seen >= l.N {
		return nil, false, nil
	}
	t, ok, err := l.Input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	return t, true, nil
}

// Close closes the input.
func (l *Limit) Close() error { return l.Input.Close() }

// AggKind enumerates aggregate functions.
type AggKind int

// Aggregate functions supported by the Aggregate operator.
const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL name of the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// AggSpec is one aggregate column: a function over an input ordinal.
// For AggCount the ordinal is ignored.
type AggSpec struct {
	Kind    AggKind
	Ordinal int
}

// CheckColumn reports whether the aggregate is defined over the named column
// of the given kind. SUM and AVG need a number or a date — folding widens
// with numeric, which has no value for a varchar; COUNT, MIN and MAX take
// any kind. Everything that compiles an AggSpec from column names calls it
// and prefixes the error with its own package.
func (k AggKind) CheckColumn(column string, kind record.Kind) error {
	if (k == AggSum || k == AggAvg) && kind == record.KindString {
		return fmt.Errorf("%s over column %q of kind %s: want a numeric or date column", k, column, kind)
	}
	return nil
}

// Aggregate is a hash aggregation over its input: one output tuple per
// distinct combination of the GroupBy ordinals (or exactly one tuple with no
// GroupBy), laid out as group-by values followed by aggregate values in spec
// order. Output groups are sorted by their key encoding for determinism.
type Aggregate struct {
	Input   Operator
	GroupBy []int
	Aggs    []AggSpec

	results []record.Tuple
	pos     int
}

// Open opens the input and validates the specification. The aggregation
// itself runs on the first Next call.
func (a *Aggregate) Open(env *Env) error {
	if a.Input == nil {
		return fmt.Errorf("exec: Aggregate needs Input")
	}
	if len(a.Aggs) == 0 && len(a.GroupBy) == 0 {
		return fmt.Errorf("exec: Aggregate with nothing to compute")
	}
	a.results = nil
	a.pos = 0
	return a.Input.Open(env)
}

// Next drains the input on first call and then emits result rows.
func (a *Aggregate) Next() (record.Tuple, bool, error) {
	if a.results == nil {
		if err := a.run(); err != nil {
			return nil, false, err
		}
	}
	if a.pos >= len(a.results) {
		return nil, false, nil
	}
	t := a.results[a.pos]
	a.pos++
	return t, true, nil
}

func (a *Aggregate) run() error {
	tb := newAggTable(a.GroupBy, a.Aggs)
	if scan, pred := pageInput(a.Input); scan != nil {
		var scratch record.Tuple
		for {
			view, ok, err := scan.nextPage()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if scratch, err = foldPage(tb, view, pred, scratch); err != nil {
				return err
			}
		}
	} else {
		for {
			t, ok, err := a.Input.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if err := tb.fold(t); err != nil {
				return err
			}
		}
	}
	a.results = tb.rows()
	return nil
}

// pageInput returns the scan and the predicate of an input the aggregation
// can fold a page at a time: a TableScan whose column set the planner
// compiled, alone or under one Filter. For any other input — a scan left to
// decode every column for an opaque predicate among them — it returns nil,
// and the input is pulled a tuple at a time.
func pageInput(in Operator) (*TableScan, func(record.Tuple) bool) {
	var pred func(record.Tuple) bool
	if f, ok := in.(*Filter); ok {
		in, pred = f.Input, f.Pred
	}
	if scan, ok := in.(*TableScan); ok && scan.Columns.Schema() != nil {
		return scan, pred
	}
	return nil, nil
}

// foldPage is the page-at-a-time loop under the Aggregate operator and the
// private GroupByConsumer: decode each tuple of the page, keep it if pred
// does (or pred is nil), fold it into tb — no iterator between the three.
// scratch is the decode buffer, returned for the next page.
func foldPage(tb *aggTable, view heap.PageView, pred func(record.Tuple) bool, scratch record.Tuple) (record.Tuple, error) {
	for i := 0; i < view.NumTuples(); i++ {
		t, err := view.Tuple(scratch, i)
		if err != nil {
			return scratch, err
		}
		scratch = t
		if pred != nil && !pred(t) {
			continue
		}
		if err := tb.fold(t); err != nil {
			return scratch, err
		}
	}
	return scratch, nil
}

// aggTable is the hash-aggregation core under the Aggregate operator, the
// push-mode GroupByConsumer and every stripe of a SharedAggState: fold tuples
// in, take deterministic sorted rows out. Not safe for concurrent folds.
//
// Group state lives in two slabs indexed by group number, so a new group
// costs its map key and nothing else, and folding into an existing group
// allocates nothing. An ungrouped table has one group, number 0, and no map.
type aggTable struct {
	groupBy []int
	aggs    []AggSpec
	groups  map[string]int // encoded group key -> group number; nil when ungrouped
	keys    []record.Value // len(groupBy) values per group, owned (cloned)
	cells   []aggCell      // len(aggs) cells per group
	keyBuf  []byte
}

// aggCell is the running state of one aggregate of one group.
type aggCell struct {
	count int64
	sum   float64
	ext   record.Value // running MIN or MAX, owned (cloned); set once count > 0
}

func newAggTable(groupBy []int, aggs []AggSpec) *aggTable {
	tb := &aggTable{groupBy: groupBy, aggs: aggs}
	if len(groupBy) > 0 {
		tb.groups = make(map[string]int)
	}
	return tb
}

// appendGroupKey appends the encoding of t's group-by values to dst.
func appendGroupKey(dst []byte, groupBy []int, t record.Tuple) ([]byte, error) {
	for _, ord := range groupBy {
		if ord < 0 || ord >= len(t) {
			return dst, fmt.Errorf("exec: group-by ordinal %d out of range", ord)
		}
		dst = appendKey(dst, t[ord])
	}
	return dst, nil
}

// fold accumulates one input tuple into its group.
func (tb *aggTable) fold(t record.Tuple) error {
	if len(tb.groupBy) == 0 {
		return tb.foldKeyed(nil, t)
	}
	key, err := appendGroupKey(tb.keyBuf[:0], tb.groupBy, t)
	tb.keyBuf = key
	if err != nil {
		return err
	}
	return tb.foldKeyed(key, t)
}

// foldKeyed is fold for a caller that has already encoded t's group key. The
// group is looked up by those bytes first; only a new group builds its key
// tuple. t may view memory the caller reuses (a decoded page): what the table
// keeps of it — group keys, MIN/MAX values — is cloned.
func (tb *aggTable) foldKeyed(key []byte, t record.Tuple) error {
	g := 0
	if tb.groups == nil {
		if len(tb.cells) == 0 {
			tb.cells = make([]aggCell, len(tb.aggs))
		}
	} else if n, ok := tb.groups[string(key)]; ok {
		g = n
	} else {
		g = len(tb.groups)
		tb.groups[string(key)] = g
		for _, ord := range tb.groupBy {
			tb.keys = append(tb.keys, t[ord].Clone())
		}
		tb.cells = append(tb.cells, make([]aggCell, len(tb.aggs))...)
	}
	cells := tb.cells[g*len(tb.aggs):][:len(tb.aggs)]
	for i, spec := range tb.aggs {
		c := &cells[i]
		if spec.Kind == AggCount {
			c.count++
			continue
		}
		if spec.Ordinal < 0 || spec.Ordinal >= len(t) {
			return fmt.Errorf("exec: aggregate ordinal %d out of range", spec.Ordinal)
		}
		v := t[spec.Ordinal]
		switch spec.Kind {
		case AggSum, AggAvg:
			c.sum += numeric(v)
		case AggMin:
			if c.count == 0 || record.Compare(v, c.ext) < 0 {
				c.ext = v.Clone()
			}
		case AggMax:
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

// keyedRow is one finished group: its result row and the key encoding that
// orders it.
type keyedRow struct {
	key string
	row record.Tuple
}

// appendRows appends one finished row per group to dst, in no particular
// order.
func (tb *aggTable) appendRows(dst []keyedRow) []keyedRow {
	if tb.groups == nil {
		if len(tb.cells) > 0 {
			dst = append(dst, keyedRow{"", tb.row(0)})
		}
		return dst
	}
	for key, g := range tb.groups {
		dst = append(dst, keyedRow{key, tb.row(g)})
	}
	return dst
}

// row builds the finished result row of group g.
func (tb *aggTable) row(g int) record.Tuple {
	nk, na := len(tb.groupBy), len(tb.aggs)
	row := make(record.Tuple, 0, nk+na)
	row = append(row, tb.keys[g*nk:][:nk]...)
	for i, spec := range tb.aggs {
		c := &tb.cells[g*na+i]
		switch spec.Kind {
		case AggCount:
			row = append(row, record.Int64(c.count))
		case AggSum:
			row = append(row, record.Float64(c.sum))
		case AggAvg:
			avg := 0.0
			if c.count > 0 {
				avg = c.sum / float64(c.count)
			}
			row = append(row, record.Float64(avg))
		case AggMin, AggMax:
			row = append(row, c.ext)
		}
	}
	return row
}

// rows finalizes the table: one row per group, sorted by key encoding.
func (tb *aggTable) rows() []record.Tuple {
	return sortedRows(tb.appendRows(nil), tb.groupBy, tb.aggs)
}

// sortedRows orders finished groups by key encoding, and applies the SQL
// empty-ungrouped special case; shared between aggTable and the striped
// SharedAggState (whose stripes hold disjoint key sets).
func sortedRows(groups []keyedRow, groupBy []int, aggs []AggSpec) []record.Tuple {
	sort.Slice(groups, func(i, j int) bool { return groups[i].key < groups[j].key })
	results := make([]record.Tuple, 0, len(groups))
	for _, g := range groups {
		results = append(results, g.row)
	}
	if len(results) == 0 && len(groupBy) == 0 {
		// SQL semantics: an ungrouped aggregate over an empty input
		// still yields one row.
		row := record.Tuple{}
		for _, spec := range aggs {
			if spec.Kind == AggCount {
				row = append(row, record.Int64(0))
			} else {
				row = append(row, record.Float64(0))
			}
		}
		results = append(results, row)
	}
	return results
}

// numeric widens a value for summation.
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

// appendKey appends a self-delimiting encoding of v for group hashing.
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

// Close closes the input.
func (a *Aggregate) Close() error { return a.Input.Close() }

// Collect opens root, drains it, closes it, and returns clones of all output
// tuples. It is the standard way to run a plan to completion.
func Collect(env *Env, root Operator) ([]record.Tuple, error) {
	if err := root.Open(env); err != nil {
		return nil, err
	}
	var out []record.Tuple
	for {
		t, ok, err := root.Next()
		if err != nil {
			root.Close()
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, t.Clone())
		env.Acct.TuplesOut++
	}
	if err := root.Close(); err != nil {
		return nil, err
	}
	return out, nil
}
