package sql

import (
	"fmt"

	"scanshare/internal/exec"
	"scanshare/internal/record"
)

// Meta is the table metadata the binder needs: the schema, optimizer-style
// column statistics for range pushdown, and clustering information. The
// engine's Table satisfies it.
type Meta interface {
	// Name returns the table name.
	Name() string
	// NumPages returns the table's page count.
	NumPages() int
	// Schema returns the table schema.
	Schema() *record.Schema
	// ColumnRange returns the min/max a column held at load time.
	ColumnRange(column string) (min, max record.Value, ok bool)
	// Clustered reports whether the table is physically ordered on the
	// column.
	Clustered(column string) bool
}

// AggTerm is one aggregate of the compiled query.
type AggTerm struct {
	Kind   exec.AggKind
	Column string // empty for COUNT(*)
}

// SpecJoin describes a compiled equi-join.
type SpecJoin struct {
	RightFrom string
	LeftCol   string
	RightCol  string
}

// Spec is the binder's output: everything the engine's query builder needs.
// Keeping it a plain struct (rather than returning an engine query directly)
// decouples this package from the public API.
type Spec struct {
	From string
	// Join is set for FROM a JOIN b ON ... statements. Projections,
	// grouping and predicates then resolve over the concatenated schema
	// (left table's columns followed by the right table's).
	Join *SpecJoin
	// StartFrac and EndFrac bound the scan as fractions of the table's
	// pages, derived from range predicates on a clustered column; the
	// full predicate still applies on top.
	StartFrac, EndFrac float64
	// Weight is the CPU weight derived from expression complexity.
	Weight float64
	// Pred is the compiled WHERE predicate, or nil, and PredReads the
	// columns the WHERE clause names, each once, in order of appearance.
	Pred      func(record.Tuple) bool
	PredReads []string
	// Select lists projected columns when the query has no aggregates.
	Select []string
	// GroupBy and Aggs describe the aggregation, if any.
	GroupBy []string
	Aggs    []AggTerm
	// OrderBy sorts the output by the named columns. With aggregation,
	// only GROUP BY columns can be ordered on.
	OrderBy []OrderTerm
	// Limit caps the row count when HasLimit.
	Limit    int64
	HasLimit bool
}

// aggKinds maps parser aggregate names to executor kinds.
var aggKinds = map[string]exec.AggKind{
	"count": exec.AggCount,
	"sum":   exec.AggSum,
	"avg":   exec.AggAvg,
	"min":   exec.AggMin,
	"max":   exec.AggMax,
}

// Compile binds a parsed statement, resolving table names through lookup.
func Compile(sel *Select, lookup func(table string) (Meta, error)) (*Spec, error) {
	meta, err := lookup(sel.From)
	if err != nil {
		return nil, err
	}
	schema := meta.Schema()
	spec := &Spec{From: sel.From, StartFrac: 0, EndFrac: 1, Weight: 1}

	if sel.Join != nil {
		right, err := lookup(sel.Join.Table)
		if err != nil {
			return nil, err
		}
		lo, err := schema.Ordinal(sel.Join.LeftCol)
		if err != nil {
			return nil, fmt.Errorf("sql: ON column %q not in %q", sel.Join.LeftCol, sel.From)
		}
		ro, err := right.Schema().Ordinal(sel.Join.RightCol)
		if err != nil {
			return nil, fmt.Errorf("sql: ON column %q not in %q", sel.Join.RightCol, sel.Join.Table)
		}
		if schema.Field(lo).Kind != right.Schema().Field(ro).Kind {
			return nil, fmt.Errorf("sql: join compares %s with %s",
				schema.Field(lo).Kind, right.Schema().Field(ro).Kind)
		}
		// All further resolution happens over the concatenated schema;
		// duplicate column names across the two tables are rejected
		// (the dialect has no qualified names).
		var fields []record.Field
		for i := 0; i < schema.NumFields(); i++ {
			fields = append(fields, schema.Field(i))
		}
		rs := right.Schema()
		for i := 0; i < rs.NumFields(); i++ {
			fields = append(fields, rs.Field(i))
		}
		combined, err := record.NewSchema(fields...)
		if err != nil {
			return nil, fmt.Errorf("sql: joined tables share column names; rename a column (%w)", err)
		}
		schema = combined
		spec.Join = &SpecJoin{RightFrom: sel.Join.Table, LeftCol: sel.Join.LeftCol, RightCol: sel.Join.RightCol}
	}

	// Projections and aggregates.
	hasAgg := false
	star := false
	var plain []string
	for _, item := range sel.Items {
		switch {
		case item.Agg != "":
			hasAgg = true
		case item.Star:
			star = true
		}
	}
	if star && (hasAgg || len(sel.Items) > 1) {
		return nil, fmt.Errorf("sql: SELECT * cannot be combined with other select items")
	}
	complexity := 0
	for _, item := range sel.Items {
		complexity += nodeCount(item.Expr)
		switch {
		case item.Star && item.Agg == "":
			// SELECT *: no projection.
		case item.Agg != "":
			kind := aggKinds[item.Agg]
			if item.Star {
				spec.Aggs = append(spec.Aggs, AggTerm{Kind: exec.AggCount})
				continue
			}
			col, ok := item.Expr.(ColRef)
			if !ok {
				return nil, fmt.Errorf("sql: %s over an expression is not supported; aggregate a plain column", item.Agg)
			}
			ord, err := schema.Ordinal(col.Name)
			if err != nil {
				return nil, fmt.Errorf("sql: unknown column %q", col.Name)
			}
			if err := kind.CheckColumn(col.Name, schema.Field(ord).Kind); err != nil {
				return nil, fmt.Errorf("sql: %w", err)
			}
			spec.Aggs = append(spec.Aggs, AggTerm{Kind: kind, Column: col.Name})
		default:
			col, ok := item.Expr.(ColRef)
			if !ok {
				return nil, fmt.Errorf("sql: computed select items are not supported; select plain columns or aggregates")
			}
			if _, err := schema.Ordinal(col.Name); err != nil {
				return nil, fmt.Errorf("sql: unknown column %q", col.Name)
			}
			plain = append(plain, col.Name)
		}
	}

	// GROUP BY columns must exist; with aggregates, plain select columns
	// must be grouped (standard SQL).
	grouped := map[string]bool{}
	for _, col := range sel.GroupBy {
		if _, err := schema.Ordinal(col); err != nil {
			return nil, fmt.Errorf("sql: unknown GROUP BY column %q", col)
		}
		grouped[col] = true
	}
	if hasAgg || len(sel.GroupBy) > 0 {
		for _, col := range plain {
			if !grouped[col] {
				return nil, fmt.Errorf("sql: column %q must appear in GROUP BY", col)
			}
		}
		spec.GroupBy = sel.GroupBy
	} else {
		spec.Select = plain
	}

	// WHERE: compile the predicate and, for single-table statements, push
	// clustered range conjuncts down to a page range (a join's post-join
	// predicate cannot restrict either scan soundly).
	if sel.Where != nil {
		pred, err := CompilePredicate(sel.Where, schema)
		if err != nil {
			return nil, err
		}
		spec.Pred = pred
		spec.PredReads = columnRefs(nil, sel.Where)
		complexity += nodeCount(sel.Where)
		if spec.Join == nil {
			col, lo, hi := clusteredBounds(sel.Where, meta)
			spec.StartFrac, spec.EndFrac = fracRange(col, lo, hi, meta)
		}
	}

	// ORDER BY: with aggregation only grouping columns are addressable;
	// otherwise any projected (or, for SELECT *, any schema) column.
	for _, term := range sel.OrderBy {
		if hasAgg || len(sel.GroupBy) > 0 {
			if !grouped[term.Col] {
				return nil, fmt.Errorf("sql: ORDER BY %q must be a GROUP BY column", term.Col)
			}
		} else if len(spec.Select) > 0 {
			found := false
			for _, col := range spec.Select {
				if col == term.Col {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("sql: ORDER BY %q must be a selected column", term.Col)
			}
		} else if _, err := schema.Ordinal(term.Col); err != nil {
			return nil, fmt.Errorf("sql: unknown ORDER BY column %q", term.Col)
		}
		spec.OrderBy = append(spec.OrderBy, term)
	}

	// CPU weight heuristic: a scan's per-tuple cost grows with the
	// expression work it evaluates.
	spec.Weight = 1 + 0.15*float64(complexity+2*len(sel.GroupBy))

	if sel.HasLim {
		spec.Limit = sel.Limit
		spec.HasLimit = true
	}
	return spec, nil
}

// bound is one side of a clustered-column restriction.
type bound struct {
	ok  bool
	val float64
}

// clusteredBounds walks the WHERE clause's AND-conjuncts for comparisons
// between a clustered numeric/date column and a literal, and returns the
// column plus the tightest [lo, hi] value bounds found (each may be absent).
// Only one clustered column is tracked — a table has a single physical
// order, so bounds on a second clustered column would be redundant anyway.
func clusteredBounds(e Expr, meta Meta) (boundCol string, lo, hi bound) {
	var walk func(Expr)
	apply := func(col string, op string, lit float64) {
		if !meta.Clustered(col) {
			return
		}
		if boundCol == "" {
			boundCol = col
		}
		if col != boundCol {
			return
		}
		switch op {
		case ">=", ">":
			if !lo.ok || lit > lo.val {
				lo = bound{ok: true, val: lit}
			}
		case "<=", "<":
			if !hi.ok || lit < hi.val {
				hi = bound{ok: true, val: lit}
			}
		case "=":
			if !lo.ok || lit > lo.val {
				lo = bound{ok: true, val: lit}
			}
			if !hi.ok || lit < hi.val {
				hi = bound{ok: true, val: lit}
			}
		}
	}
	walk = func(e Expr) {
		b, ok := e.(Binary)
		if !ok {
			return
		}
		if b.Op == "AND" {
			walk(b.L)
			walk(b.R)
			return
		}
		col, lit, op, ok := normalizeComparison(b)
		if ok {
			apply(col, op, lit)
		}
	}
	walk(e)
	return boundCol, lo, hi
}

// normalizeComparison extracts (column, literal, op) from col-op-lit or
// lit-op-col comparisons over numeric/date literals.
func normalizeComparison(b Binary) (col string, lit float64, op string, ok bool) {
	litVal := func(e Expr) (float64, bool) {
		l, isLit := e.(Literal)
		if !isLit {
			return 0, false
		}
		switch l.Val.Kind {
		case record.KindInt64, record.KindDate:
			return float64(l.Val.I), true
		case record.KindFloat64:
			return l.Val.F, true
		}
		return 0, false
	}
	flip := map[string]string{"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "="}
	if c, isCol := b.L.(ColRef); isCol {
		if v, isLit := litVal(b.R); isLit {
			return c.Name, v, b.Op, b.Op == "=" || flip[b.Op] != ""
		}
	}
	if c, isCol := b.R.(ColRef); isCol {
		if v, isLit := litVal(b.L); isLit {
			f, known := flip[b.Op]
			return c.Name, v, f, known
		}
	}
	return "", 0, "", false
}

// fracRange converts value bounds on the clustered column into page-range
// fractions via linear interpolation over the column's min/max, padded by
// one page on each side to absorb page-boundary straddling. The predicate
// still filters exactly; the range only bounds the scan.
func fracRange(col string, lo, hi bound, meta Meta) (float64, float64) {
	if col == "" || (!lo.ok && !hi.ok) {
		return 0, 1
	}
	minV, maxV, ok := meta.ColumnRange(col)
	if !ok {
		return 0, 1
	}
	var mn, mx float64
	switch minV.Kind {
	case record.KindInt64, record.KindDate:
		mn, mx = float64(minV.I), float64(maxV.I)
	case record.KindFloat64:
		mn, mx = minV.F, maxV.F
	default:
		return 0, 1
	}
	if mx <= mn {
		return 0, 1
	}
	span := mx - mn
	start, end := 0.0, 1.0
	if lo.ok {
		start = (lo.val - mn) / span
	}
	if hi.ok {
		end = (hi.val - mn) / span
	}
	pad := 1.0 / float64(max(meta.NumPages(), 1))
	start -= pad
	end += pad
	if start < 0 {
		start = 0
	}
	if end > 1 {
		end = 1
	}
	if start >= end {
		return 0, 1 // degenerate: fall back to a full scan
	}
	return start, end
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
