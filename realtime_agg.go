package scanshare

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"scanshare/internal/exec"
	"scanshare/internal/metrics"
	"scanshare/internal/trace"
)

// RealtimeAggSpec is one aggregate column of a realtime GROUP BY consumer:
// a function over a named table column (the column is ignored for Count).
type RealtimeAggSpec struct {
	Kind   AggKind
	Column string
}

// RealtimeAggQuery is one GROUP BY query executed as a realtime scan
// consumer: the scan delivers pages, the query folds their tuples into
// aggregation state as they arrive.
type RealtimeAggQuery struct {
	// Scan is the underlying table scan. Scan.OnPage may be set and is
	// chained before the aggregation fold.
	Scan RealtimeScan
	// GroupBy names the grouping columns (may be empty for a plain
	// aggregate).
	GroupBy []string
	// Aggs are the aggregate output columns.
	Aggs []RealtimeAggSpec
	// Filter, when set, drops tuples before aggregation. It must not
	// retain the tuple or its varchars (they view the delivered page), and
	// it makes the fold decode every column instead of only those the
	// query names, since what a Go function reads cannot be known.
	Filter func(Tuple) bool
}

// RealtimeAggReport is the outcome of RunRealtimeAggregates.
type RealtimeAggReport struct {
	*RealtimeReport
	// Rows holds each query's result rows, index-aligned with the input
	// queries, sorted deterministically by group key encoding.
	Rows [][]Tuple
	// SharedAggFolds is how many tuple folds went into shared (cross-
	// query) aggregation state; zero when sharing was off or no query
	// shape repeated.
	SharedAggFolds int64
}

// aggShapeKey identifies queries that may share aggregation state: same
// table, same grouping, same aggregates, and no private filter.
func aggShapeKey(q *RealtimeAggQuery, groupBy []int, aggs []exec.AggSpec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t%d|s%d..%d|", q.Scan.Table.coreTableID(), q.Scan.StartPage, q.Scan.EndPage)
	for _, o := range groupBy {
		fmt.Fprintf(&b, "g%d,", o)
	}
	for _, a := range aggs {
		fmt.Fprintf(&b, "a%d:%d,", a.Kind, a.Ordinal)
	}
	return b.String()
}

// RunRealtimeAggregates executes N GROUP BY queries as consumers of
// realtime scans: each query's tuples are folded into aggregation state
// directly from the pages its scan delivers. With opts.PushDelivery the N
// scans of one table collapse into one physical push stream, and with
// shareState the aggregation state collapses too — queries of identical
// shape (same table, footprint, grouping, aggregates, and no filter) fold
// into one mutex-striped shared hash table instead of N private ones, so
// both the page stream and the group state exist once per table.
//
// Result rows are deterministic (sorted by group key encoding) and
// identical across delivery modes and sharing settings.
func (e *Engine) RunRealtimeAggregates(ctx context.Context, opts RealtimeOptions, queries []RealtimeAggQuery, shareState bool) (*RealtimeAggReport, error) {
	if len(queries) == 0 {
		return nil, errors.New("scanshare: RunRealtimeAggregates with no queries")
	}
	if opts.Collector == nil {
		opts.Collector = new(metrics.Collector)
	}

	// Resolve the tracer the run will use (RunRealtime applies the same
	// rule) so fold work can be attributed to each scan's span. Roots are
	// allocated here, before the OnPage chain is built, because the fold
	// wrapper needs the scan's span identity.
	tr := opts.Tracer
	if tr == nil {
		tr = e.tracer
	}

	consumers := make([]*exec.GroupByConsumer, len(queries))
	states := make(map[string]*exec.SharedAggState)
	scans := make([]RealtimeScan, len(queries))
	foldWait := make([]time.Duration, len(queries))
	for i := range queries {
		q := &queries[i]
		if q.Scan.Table == nil {
			return nil, fmt.Errorf("scanshare: aggregate query %d has no table", i)
		}
		schema := q.Scan.Table.Schema()
		groupBy := make([]int, len(q.GroupBy))
		for j, name := range q.GroupBy {
			ord, err := schema.Ordinal(name)
			if err != nil {
				return nil, fmt.Errorf("scanshare: aggregate query %d: %w", i, err)
			}
			groupBy[j] = ord
		}
		aggs := make([]exec.AggSpec, len(q.Aggs))
		for j, a := range q.Aggs {
			spec := exec.AggSpec{Kind: a.Kind}
			if a.Kind != exec.AggCount {
				ord, err := schema.Ordinal(a.Column)
				if err == nil {
					err = a.Kind.CheckColumn(a.Column, schema.Field(ord).Kind)
				}
				if err != nil {
					return nil, fmt.Errorf("scanshare: aggregate query %d: %w", i, err)
				}
				spec.Ordinal = ord
			}
			aggs[j] = spec
		}
		if len(groupBy) == 0 && len(aggs) == 0 {
			return nil, fmt.Errorf("scanshare: aggregate query %d computes nothing", i)
		}

		c := &exec.GroupByConsumer{Schema: schema, Pred: q.Filter, GroupBy: groupBy, Aggs: aggs}
		// Sharing needs identical work per tuple: a private filter or an
		// early stop would make the shared rows diverge from what this
		// query would have computed alone.
		if shareState && q.Filter == nil && q.Scan.StopAfterPages == 0 {
			key := aggShapeKey(q, groupBy, aggs)
			st := states[key]
			if st == nil {
				var err error
				st, err = exec.NewSharedAggState(groupBy, aggs, 0)
				if err != nil {
					return nil, fmt.Errorf("scanshare: aggregate query %d: %w", i, err)
				}
				states[key] = st
			}
			c.Shared = st
		}
		consumers[i] = c

		scan := q.Scan
		if !scan.Span.Valid() {
			scan.Span = tr.Root()
		}
		fold := c.OnPage
		if scan.Span.Valid() {
			// Tracing is on: time each fold. One scan's OnPage calls are
			// sequential (scan goroutine in pull mode, consumer goroutine
			// in push mode), so a plain per-query accumulator suffices;
			// the run's WaitGroup orders the final read after all writes.
			i, inner := i, fold
			fold = func(pageNo int, data []byte) {
				t0 := time.Now()
				inner(pageNo, data)
				foldWait[i] += time.Since(t0)
			}
		}
		if user := scan.OnPage; user != nil {
			scan.OnPage = func(pageNo int, data []byte) {
				user(pageNo, data)
				fold(pageNo, data)
			}
		} else {
			scan.OnPage = fold
		}
		scans[i] = scan
	}

	report, err := e.RunRealtime(ctx, opts, scans)
	if err != nil {
		return nil, err
	}
	// Report each query's total fold time as one span under its scan. The
	// tracer outlives RunRealtime's attach/detach, so emitting after the
	// run is fine; the assembler sums by kind and does not require children
	// to nest temporally inside their parent.
	for i, d := range foldWait {
		if d > 0 {
			tr.EmitSpan(scans[i].Span, trace.SpanFold, int64(i),
				int64(scans[i].Table.coreTableID()), d)
		}
	}

	out := &RealtimeAggReport{RealtimeReport: report, Rows: make([][]Tuple, len(queries))}
	sharedRows := make(map[*exec.SharedAggState][]Tuple)
	var errs []error
	for i, c := range consumers {
		if _, err := c.Results(); err != nil {
			errs = append(errs, fmt.Errorf("scanshare: aggregate query %d: %w", i, err))
			continue
		}
		if st := c.Shared; st != nil {
			rows, ok := sharedRows[st]
			if !ok {
				rows = st.Rows()
				sharedRows[st] = rows
			}
			out.Rows[i] = rows
			continue
		}
		rows, _ := c.Results()
		out.Rows[i] = rows
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	for st := range sharedRows {
		out.SharedAggFolds += st.Folds()
	}
	if out.SharedAggFolds > 0 {
		opts.Collector.Add(metrics.SharedAggFolds, out.SharedAggFolds)
		out.Counters = opts.Collector.Snapshot()
	}
	return out, nil
}

// EncodeAggRows renders aggregation result rows as deterministic bytes for
// byte-identical comparison across delivery modes and sharing settings.
func EncodeAggRows(rows []Tuple) []byte { return exec.EncodeRows(rows) }
