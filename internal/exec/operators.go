package exec

import (
	"encoding/binary"
	"fmt"
	"math"

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
	if scan, pred := pageInput(a.Input); scan != nil {
		var k kernel
		k.init(compileShape(scan.Columns.Schema(), a.GroupBy, a.Aggs), pred)
		tb := &groupTable{sh: k.sh}
		for {
			view, ok, err := scan.nextPage()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if err := k.foldPage(view, tb); err != nil {
				return err
			}
		}
		a.results = sortedRows([]*groupTable{tb}, a.GroupBy, a.Aggs)
		return nil
	}
	// Pulled a tuple at a time: the kernel folds each as a batch of one
	// row, compiled against the kinds of the first.
	var k kernel
	var tb *groupTable
	for {
		t, ok, err := a.Input.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if tb == nil {
			schema, err := tupleSchema(t)
			if err != nil {
				return err
			}
			k.init(compileShape(schema, a.GroupBy, a.Aggs), nil)
			tb = &groupTable{sh: k.sh}
		}
		if err := k.loadTuple(t); err != nil {
			return err
		}
		if err := k.fold(tb); err != nil {
			return err
		}
	}
	a.results = sortedRows([]*groupTable{tb}, a.GroupBy, a.Aggs)
	return nil
}

// tupleSchema is the schema of an operator's output, read off one tuple of
// it: one field per value, of the value's kind.
func tupleSchema(t record.Tuple) (*record.Schema, error) {
	fields := make([]record.Field, len(t))
	for i, v := range t {
		fields[i] = record.Field{Name: fmt.Sprint("c", i), Kind: v.Kind}
	}
	schema, err := record.NewSchema(fields...)
	if err != nil {
		return nil, fmt.Errorf("exec: aggregate input: %w", err)
	}
	return schema, nil
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

// keySize is the length of v's appendKey encoding.
func keySize(v record.Value) int {
	if v.Kind == record.KindString {
		return len(v.S) + 2
	}
	return 9
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
