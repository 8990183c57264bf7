package scanshare

import (
	"fmt"

	"scanshare/internal/exec"
	"scanshare/internal/record"
)

// Query is a declarative single-table plan: a (possibly range-restricted)
// table scan, an optional predicate, and an optional projection, aggregation
// and limit on top. Build one with NewQuery and the chaining setters, then
// pass it to Engine.Run inside a Job.
//
// A Query is immutable once built into a plan; the same Query value can be
// submitted in many jobs concurrently.
type Query struct {
	table      *Table
	name       string
	startFrac  float64
	endFrac    float64
	weight     float64
	pred       func(Tuple) bool
	predCols   record.Columns // what pred reads; zero when it did not say
	predErr    error          // a column in Where's reads the table lacks
	project    []string
	groupBy    []string
	aggs       []aggTerm
	orderBy    []orderTerm
	limit      int64
	hasLimit   bool
	importance Importance
	join       *joinSpec
}

// joinSpec describes an equi-join query: two side queries (plain scans with
// optional predicates) and the join columns.
type joinSpec struct {
	left, right       *Query
	leftCol, rightCol string
}

type orderTerm struct {
	col  string
	desc bool
}

type aggTerm struct {
	kind AggKind
	col  string
}

// NewQuery starts a query over t. The default query scans the whole table at
// CPU weight 1 and returns raw rows.
func NewQuery(t *Table) *Query {
	return &Query{table: t, endFrac: 1, weight: 1}
}

// Join combines this query with another into an equi-join on the named
// columns. The two sides must be plain scans (ranges, weights, importance
// and Where predicates are allowed; projections, aggregations, ordering and
// limits are not — those belong on the joined query). The joined tuple lays
// out the left table's columns followed by the right table's; Where,
// Select, GroupBy, Aggregate and OrderBy on the joined query resolve
// columns across both tables (ambiguous names are an error).
//
// Both side scans participate in scan sharing individually: a join's
// lineitem probe scan shares buffer pages with every other lineitem scan in
// the system, exactly like a stand-alone scan.
func (q *Query) Join(right *Query, leftColumn, rightColumn string) *Query {
	return &Query{
		table:   q.table, // identifies the owning engine
		endFrac: 1,
		weight:  1,
		join:    &joinSpec{left: q, right: right, leftCol: leftColumn, rightCol: rightColumn},
	}
}

// Named sets a label used in reports; defaults to the table name.
func (q *Query) Named(name string) *Query {
	q.name = name
	return q
}

// Range restricts the scan to the page range [startFrac, endFrac) of the
// table, expressed as fractions of its page count. This models predicates on
// the clustering column, which a clustered table turns into a contiguous
// page range.
func (q *Query) Range(startFrac, endFrac float64) *Query {
	q.startFrac, q.endFrac = startFrac, endFrac
	return q
}

// Weight sets the CPU weight: a multiplier on the per-tuple processing cost
// that models expression complexity (1 ≈ a cheap I/O-bound predicate, 8+ ≈
// expensive Q1-style arithmetic).
func (q *Query) Weight(w float64) *Query {
	q.weight = w
	return q
}

// Importance sets the query's priority class; see the Importance type.
func (q *Query) Importance(i Importance) *Query {
	q.importance = i
	return q
}

// Where sets the predicate applied to every scanned tuple. The tuple, and the
// bytes behind its varchars, are the scan's: pred reads them and keeps
// nothing.
//
// reads names the columns pred reads. With them, the scan decodes only the
// columns the query reads — pred's and the selected, grouped and aggregated
// ones — and an aggregation folds the scan a page at a time; a column pred
// reads without naming it reads as the zero value of its kind. Without
// them, pred is opaque: every column is decoded and tuples are pulled
// through the operators one at a time. A join's scans decode every column,
// so a joined query's reads are not used.
func (q *Query) Where(pred func(Tuple) bool, reads ...string) *Query {
	q.pred = pred
	q.predCols, q.predErr = record.Columns{}, nil
	if len(reads) > 0 && q.join == nil {
		q.predCols, q.predErr = record.SelectNamed(q.table.Schema(), reads...)
	}
	return q
}

// Select projects the named columns (applied before any aggregation's input,
// so aggregate and group-by columns must be among them if both are used).
func (q *Query) Select(columns ...string) *Query {
	q.project = append(q.project, columns...)
	return q
}

// GroupBy aggregates per distinct combination of the named columns.
func (q *Query) GroupBy(columns ...string) *Query {
	q.groupBy = append(q.groupBy, columns...)
	return q
}

// Aggregate appends an aggregate over the named column (ignored for Count).
func (q *Query) Aggregate(kind AggKind, column string) *Query {
	q.aggs = append(q.aggs, aggTerm{kind: kind, col: column})
	return q
}

// CountAll appends a COUNT(*).
func (q *Query) CountAll() *Query { return q.Aggregate(Count, "") }

// Sum appends a SUM over the named column.
func (q *Query) Sum(column string) *Query { return q.Aggregate(Sum, column) }

// Avg appends an AVG over the named column.
func (q *Query) Avg(column string) *Query { return q.Aggregate(Avg, column) }

// OrderBy sorts the output ascending by the named column (applied after any
// aggregation, before any limit). Chain calls for secondary keys. Note that
// a sharing scan does not deliver rows in storage order — it may start
// mid-range and wrap around — so ordered output always costs an explicit
// sort, exactly the trade-off the paper discusses for ordered index scans.
func (q *Query) OrderBy(column string) *Query {
	q.orderBy = append(q.orderBy, orderTerm{col: column})
	return q
}

// OrderByDesc sorts the output descending by the named column.
func (q *Query) OrderByDesc(column string) *Query {
	q.orderBy = append(q.orderBy, orderTerm{col: column, desc: true})
	return q
}

// Limit caps the number of emitted rows.
func (q *Query) Limit(n int64) *Query {
	q.limit = n
	q.hasLimit = true
	return q
}

// label returns the query's report name.
func (q *Query) label() string {
	if q.name != "" {
		return q.name
	}
	if q.join != nil {
		return q.join.left.table.Name() + "⋈" + q.join.right.table.Name()
	}
	return q.table.Name()
}

// pageRange resolves the fractional range to concrete pages.
func (q *Query) pageRange() (int, int, error) {
	if q.startFrac < 0 || q.endFrac > 1 || q.startFrac >= q.endFrac {
		return 0, 0, fmt.Errorf("scanshare: query %q has invalid range [%g,%g)", q.label(), q.startFrac, q.endFrac)
	}
	n := q.table.NumPages()
	start := int(q.startFrac * float64(n))
	end := int(q.endFrac*float64(n) + 0.5)
	if end > n {
		end = n
	}
	if start >= end {
		end = start + 1
	}
	return start, end, nil
}

// plan compiles the query into an operator tree.
func (q *Query) plan(shared bool) (exec.Operator, error) {
	root, fields, scan, err := q.baseTree(shared)
	if err != nil {
		return nil, err
	}
	if q.join != nil && q.pred != nil {
		// A joined query's Where filters the combined tuples; each
		// side's own Where already ran below the join.
		root = &exec.Filter{Input: root, Pred: q.pred}
	}
	ordinalIn := func(col string) (int, error) { return fieldOrdinal(fields, col, q.label()) }
	aggIn := fields // what an aggregation on top reads: the projection, if any
	if len(q.project) > 0 {
		ords := make([]int, len(q.project))
		aggIn = make([]Field, len(q.project))
		for i, col := range q.project {
			ord, err := ordinalIn(col)
			if err != nil {
				return nil, err
			}
			ords[i], aggIn[i] = ord, fields[ord]
		}
		root = &exec.Project{Input: root, Ordinals: ords}
	}
	if len(q.aggs) > 0 || len(q.groupBy) > 0 {
		// With a projection in place, ordinals refer to the projected
		// layout; otherwise to the pre-projection fields.
		ordinal := func(col string) (int, error) {
			if len(q.project) > 0 {
				for i, p := range q.project {
					if p == col {
						return i, nil
					}
				}
				return 0, fmt.Errorf("scanshare: column %q not in projection", col)
			}
			return ordinalIn(col)
		}
		agg := &exec.Aggregate{Input: root}
		for _, col := range q.groupBy {
			ord, err := ordinal(col)
			if err != nil {
				return nil, err
			}
			agg.GroupBy = append(agg.GroupBy, ord)
		}
		for _, term := range q.aggs {
			spec := exec.AggSpec{Kind: term.kind}
			if term.kind != Count {
				ord, err := ordinal(term.col)
				if err != nil {
					return nil, err
				}
				if err := term.kind.CheckColumn(term.col, aggIn[ord].Kind); err != nil {
					return nil, fmt.Errorf("scanshare: query %q: %w", q.label(), err)
				}
				spec.Ordinal = ord
			}
			agg.Aggs = append(agg.Aggs, spec)
		}
		root = agg
	}
	if len(q.orderBy) > 0 {
		keys := make([]exec.SortKey, len(q.orderBy))
		for i, term := range q.orderBy {
			ord, err := q.outputOrdinal(term.col)
			if err != nil {
				return nil, err
			}
			keys[i] = exec.SortKey{Ordinal: ord, Desc: term.desc}
		}
		root = &exec.Sort{Input: root, Keys: keys}
	}
	if q.hasLimit {
		root = &exec.Limit{Input: root, N: q.limit}
	}
	if scan != nil {
		// Last, so that an unknown column has been reported above.
		if scan.Columns, err = q.scanColumns(); err != nil {
			return nil, err
		}
	}
	return root, nil
}

// scanColumns compiles what a single-table query's scan decodes: the
// columns its predicate, projection, grouping and aggregates read. It is the
// zero set — every column — for an opaque predicate and for a query that
// returns whole rows.
func (q *Query) scanColumns() (record.Columns, error) {
	if (q.pred != nil && q.predCols.Schema() == nil) || len(q.project)+len(q.groupBy)+len(q.aggs) == 0 {
		return record.Columns{}, nil
	}
	s := q.table.Schema()
	cols, err := record.SelectNamed(s, q.project...)
	if err != nil {
		return record.Columns{}, err
	}
	grouped, err := record.SelectNamed(s, q.groupBy...)
	if err != nil {
		return record.Columns{}, err
	}
	cols = cols.Union(grouped)
	for _, term := range q.aggs {
		if term.kind == Count {
			continue
		}
		ord, err := s.Ordinal(term.col)
		if err != nil {
			return record.Columns{}, err
		}
		cols = cols.With(ord)
	}
	if q.pred != nil {
		cols = cols.Union(q.predCols)
	}
	return cols, nil
}

// outputOrdinal resolves a column name against the query's output layout:
// group-by columns (aggregated queries), the projection, or the
// pre-projection fields.
func (q *Query) outputOrdinal(col string) (int, error) {
	if len(q.aggs) > 0 || len(q.groupBy) > 0 {
		for i, g := range q.groupBy {
			if g == col {
				return i, nil
			}
		}
		return 0, fmt.Errorf("scanshare: ORDER BY %q must be a GROUP BY column", col)
	}
	if len(q.project) > 0 {
		for i, p := range q.project {
			if p == col {
				return i, nil
			}
		}
		return 0, fmt.Errorf("scanshare: ORDER BY %q must be a selected column", col)
	}
	fields := q.preProjectionFields()
	return fieldOrdinal(fields, col, q.label())
}

// preProjectionFields lists the columns flowing out of the query's scan (or
// join) stage, before any projection.
func (q *Query) preProjectionFields() []Field {
	if q.join != nil {
		return append(schemaFields(q.join.left.table.Schema()), schemaFields(q.join.right.table.Schema())...)
	}
	return schemaFields(q.table.Schema())
}

func schemaFields(s *Schema) []Field {
	out := make([]Field, s.NumFields())
	for i := range out {
		out[i] = s.Field(i)
	}
	return out
}

// fieldOrdinal resolves a column name against a field list, rejecting
// unknown and ambiguous names.
func fieldOrdinal(fields []Field, col, label string) (int, error) {
	found := -1
	for i, f := range fields {
		if f.Name != col {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("scanshare: column %q is ambiguous in query %q", col, label)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("scanshare: no column %q in query %q", col, label)
	}
	return found, nil
}

// baseTree builds the scan (or join-of-scans) stage and returns it together
// with its output fields and, for a single-table query, its scan.
func (q *Query) baseTree(shared bool) (exec.Operator, []Field, *exec.TableScan, error) {
	if q.join == nil {
		op, scan, err := q.scanTree(shared)
		if err != nil {
			return nil, nil, nil, err
		}
		return op, schemaFields(q.table.Schema()), scan, nil
	}

	j := q.join
	if q.startFrac != 0 || q.endFrac != 1 || q.weight != 1 || q.importance != ImportanceNormal {
		return nil, nil, nil, fmt.Errorf("scanshare: set Range/Weight/Importance on the join's side queries, not on %q", q.label())
	}
	for side, sq := range map[string]*Query{"left": j.left, "right": j.right} {
		if sq.join != nil {
			return nil, nil, nil, fmt.Errorf("scanshare: nested joins are not supported (%s side of %q)", side, q.label())
		}
		if len(sq.project) > 0 || len(sq.groupBy) > 0 || len(sq.aggs) > 0 || len(sq.orderBy) > 0 || sq.hasLimit {
			return nil, nil, nil, fmt.Errorf("scanshare: the %s side of join %q must be a plain scan (move projections/aggregations to the joined query)", side, q.label())
		}
	}
	if j.left.table.eng != j.right.table.eng {
		return nil, nil, nil, fmt.Errorf("scanshare: join %q spans engines", q.label())
	}

	leftSchema, rightSchema := j.left.table.Schema(), j.right.table.Schema()
	lo, err := leftSchema.Ordinal(j.leftCol)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("scanshare: join %q: %w", q.label(), err)
	}
	ro, err := rightSchema.Ordinal(j.rightCol)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("scanshare: join %q: %w", q.label(), err)
	}
	if leftSchema.Field(lo).Kind != rightSchema.Field(ro).Kind {
		return nil, nil, nil, fmt.Errorf("scanshare: join %q compares %s with %s",
			q.label(), leftSchema.Field(lo).Kind, rightSchema.Field(ro).Kind)
	}

	// The side scans keep the zero column set: a join decodes every column.
	leftTree, _, err := j.left.scanTree(shared)
	if err != nil {
		return nil, nil, nil, err
	}
	rightTree, _, err := j.right.scanTree(shared)
	if err != nil {
		return nil, nil, nil, err
	}
	op := &exec.HashJoin{Left: leftTree, Right: rightTree, LeftOrdinal: lo, RightOrdinal: ro}
	fields := append(schemaFields(leftSchema), schemaFields(rightSchema)...)
	return op, fields, nil, nil
}

// scanTree builds this query's own scan plus its Where filter, and returns
// the scan too.
func (q *Query) scanTree(shared bool) (exec.Operator, *exec.TableScan, error) {
	if q.predErr != nil {
		return nil, nil, fmt.Errorf("scanshare: query %q: Where reads: %w", q.label(), q.predErr)
	}
	start, end, err := q.pageRange()
	if err != nil {
		return nil, nil, err
	}
	if end == q.table.NumPages() {
		end = 0 // TableScan convention: 0 means "to the end"
	}
	scan := &exec.TableScan{
		Table:      q.table.tbl,
		TableID:    q.table.coreTableID(),
		StartPage:  start,
		EndPage:    end,
		CPUWeight:  q.weight,
		Shared:     shared,
		Importance: q.importance,
	}
	var root exec.Operator = scan
	if q.pred != nil {
		root = &exec.Filter{Input: root, Pred: q.pred}
	}
	return root, scan, nil
}
