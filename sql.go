package scanshare

import (
	"fmt"

	"scanshare/internal/sql"
)

// SQL compiles a SQL SELECT statement against the engine's catalog into a
// Query, ready to submit in Jobs or StreamItems. The dialect covers the
// single-table analytics shape of the paper's workload:
//
//	SELECT l_returnflag, count(*), sum(l_extendedprice), avg(l_discount)
//	FROM lineitem
//	WHERE l_shipdate >= DATE '1997-01-01' AND l_discount BETWEEN 0.05 AND 0.07
//	GROUP BY l_returnflag
//	LIMIT 10
//
// The compiler feeds the scan sharing machinery the same optimizer-style
// information the Go builder takes explicitly: range predicates on a
// clustered column become a page-range restriction (the scan only covers the
// matching extent of the table), and the scan's CPU weight is derived from
// the statement's expression complexity. DATE literals are anchored at
// 1992-01-01, the start of the TPC-H date range.
//
// Two-table equi-joins are supported (FROM a JOIN b ON acol = bcol); the
// joined tables' column names must not collide, since the dialect has no
// qualified names. Unsupported by design: multi-way joins, subqueries,
// HAVING, NULLs, and computed select items.
func (e *Engine) SQL(query string) (*Query, error) {
	sel, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	tbl, err := e.Lookup(sel.From)
	if err != nil {
		return nil, err
	}
	spec, err := sql.Compile(sel, func(name string) (sql.Meta, error) { return e.Lookup(name) })
	if err != nil {
		return nil, err
	}

	var q *Query
	if spec.Join != nil {
		rightTbl, err := e.Lookup(spec.Join.RightFrom)
		if err != nil {
			return nil, err
		}
		q = NewQuery(tbl).Weight(spec.Weight).
			Join(NewQuery(rightTbl).Weight(spec.Weight), spec.Join.LeftCol, spec.Join.RightCol).
			Named(sel.From + "⋈" + spec.Join.RightFrom)
	} else {
		q = NewQuery(tbl).
			Named(sel.From).
			Range(spec.StartFrac, spec.EndFrac).
			Weight(spec.Weight)
	}
	if spec.Pred != nil {
		q.Where(spec.Pred, spec.PredReads...)
	}
	if len(spec.Select) > 0 {
		q.Select(spec.Select...)
	}
	if len(spec.GroupBy) > 0 {
		q.GroupBy(spec.GroupBy...)
	}
	for _, agg := range spec.Aggs {
		q.Aggregate(agg.Kind, agg.Column)
	}
	for _, term := range spec.OrderBy {
		if term.Desc {
			q.OrderByDesc(term.Col)
		} else {
			q.OrderBy(term.Col)
		}
	}
	if spec.HasLimit {
		q.Limit(spec.Limit)
	}
	return q, nil
}

// CompileRealtimeScan compiles a SQL SELECT into a RealtimeScan for
// RunRealtime: the statement's table becomes the scan's table, and range
// predicates on the clustering column become the scan's page bounds, exactly
// as in SQL. The per-tuple clauses — WHERE on non-clustered columns,
// projection, grouping, aggregates, ORDER BY, LIMIT — do not change which
// pages a sequential scan touches, so they are accepted and folded away;
// realtime mode measures buffer and sharing behavior, not query results.
// Joins are rejected: a realtime scan is one sequential stream over one
// table.
func (e *Engine) CompileRealtimeScan(query string) (RealtimeScan, error) {
	sel, err := sql.Parse(query)
	if err != nil {
		return RealtimeScan{}, err
	}
	spec, err := sql.Compile(sel, func(name string) (sql.Meta, error) { return e.Lookup(name) })
	if err != nil {
		return RealtimeScan{}, err
	}
	if spec.Join != nil {
		return RealtimeScan{}, fmt.Errorf("scanshare: realtime scans are single-table; %q joins %q", sel.From, spec.Join.RightFrom)
	}
	tbl, err := e.Lookup(sel.From)
	if err != nil {
		return RealtimeScan{}, err
	}
	sc := RealtimeScan{Table: tbl}
	n := tbl.NumPages()
	sc.StartPage = int(spec.StartFrac * float64(n))
	if spec.EndFrac < 1 {
		// Same rounding as Query.pageRange; a full-range scan keeps
		// EndPage 0 ("to the end"), the RealtimeScan idiom.
		end := int(spec.EndFrac*float64(n) + 0.5)
		if end > n {
			end = n
		}
		if end <= sc.StartPage {
			end = sc.StartPage + 1
		}
		sc.EndPage = end
	}
	return sc, nil
}

// MustSQL is SQL panicking on error, for tests and examples with known-good
// statements.
func (e *Engine) MustSQL(query string) *Query {
	q, err := e.SQL(query)
	if err != nil {
		panic(err)
	}
	return q
}
