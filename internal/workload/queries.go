package workload

import (
	"fmt"
	"slices"

	"scanshare"
)

// TableKey selects one of the generated tables.
type TableKey int

// Generated tables.
const (
	Lineitem TableKey = iota
	Orders
	Part
	Customer
)

// String returns the table name.
func (k TableKey) String() string {
	switch k {
	case Lineitem:
		return "lineitem"
	case Orders:
		return "orders"
	case Part:
		return "part"
	case Customer:
		return "customer"
	default:
		return fmt.Sprintf("TableKey(%d)", int(k))
	}
}

// table resolves the key against a DB.
func (db *DB) table(k TableKey) *scanshare.Table {
	switch k {
	case Lineitem:
		return db.Lineitem
	case Orders:
		return db.Orders
	case Part:
		return db.Part
	case Customer:
		return db.Customer
	default:
		panic(fmt.Sprintf("workload: unknown table key %d", int(k)))
	}
}

// Template describes one of the 22 battery queries: which table it scans,
// over which clustered page range, at what CPU weight, and how the plan is
// finished (predicate + aggregation).
type Template struct {
	// Name is the report label, q1..q22.
	Name string
	// Table is the scanned table.
	Table TableKey
	// StartFrac and EndFrac give the clustered page range as fractions.
	StartFrac, EndFrac float64
	// Weight is the CPU weight of the scan.
	Weight float64
	// Description says what the query models.
	Description string
	// pred is the query's predicate, nil for none, and reads the columns
	// it reads: every column pred's body indexes, and no other.
	pred  func(t scanshare.Tuple) bool
	reads []string
	// finish applies the aggregation to the filtered query.
	finish func(q *scanshare.Query) *scanshare.Query
}

// Query instantiates the template against db.
func (t Template) Query(db *DB) *scanshare.Query {
	q := scanshare.NewQuery(db.table(t.Table)).
		Named(t.Name).
		Range(t.StartFrac, t.EndFrac).
		Weight(t.Weight)
	if t.pred != nil {
		q.Where(t.pred, t.reads...)
	}
	return t.finish(q)
}

// Q1 returns the battery's CPU-bound pricing-summary query, the analog of
// TPC-H Q1 used in the paper's staggered CPU-intensive experiment.
func Q1(db *DB) *scanshare.Query { return mustTemplate("q1").Query(db) }

// Q6 returns the battery's I/O-bound forecasting-revenue query, the analog
// of TPC-H Q6 used in the paper's staggered I/O-intensive experiment.
func Q6(db *DB) *scanshare.Query { return mustTemplate("q6").Query(db) }

// mustTemplate returns the named template.
func mustTemplate(name string) Template {
	for _, t := range battery {
		if t.Name == name {
			return t
		}
	}
	panic(fmt.Sprintf("workload: no template %q", name))
}

// Templates returns the 22-query battery. Ten queries scan lineitem (the
// dominant table), mirroring the scan-concentration of real warehouses; six
// of those hit the hot last year of data. CPU weights range from 0.5
// (I/O-bound) to 8 (CPU-bound).
func Templates() []Template { return slices.Clone(battery) }

// battery is built once: a query instantiated from it allocates nothing for
// its predicate's reads.
var battery = []Template{
	{
		Name: "q1", Table: Lineitem, StartFrac: 0, EndFrac: 1, Weight: 8,
		Description: "pricing summary: full lineitem scan, heavy per-tuple arithmetic (CPU-bound)",
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.GroupBy("l_returnflag", "l_linestatus").
				Sum("l_quantity").Sum("l_extendedprice").Avg("l_discount").CountAll()
		},
	},
	{
		Name: "q2", Table: Part, StartFrac: 0, EndFrac: 1, Weight: 2,
		Description: "minimum-cost supplier part probe",
		pred:        func(t scanshare.Tuple) bool { return t[3].I >= 15 && t[3].I < 25 },
		reads:       []string{"p_size"},
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.Aggregate(scanshare.Min, "p_retailprice").CountAll()
		},
	},
	{
		Name: "q3", Table: Orders, StartFrac: HotFrac, EndFrac: 1, Weight: 1.5,
		Description: "shipping priority over recent orders",
		pred:        func(t scanshare.Tuple) bool { return t[5].S == "O" },
		reads:       []string{"o_orderstatus"},
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.GroupBy("o_orderpriority").Sum("o_totalprice")
		},
	},
	{
		Name: "q4", Table: Orders, StartFrac: HotFrac, EndFrac: 1, Weight: 1,
		Description: "order priority checking over the hot year",
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.GroupBy("o_orderpriority").CountAll()
		},
	},
	{
		Name: "q5", Table: Customer, StartFrac: 0, EndFrac: 1, Weight: 2,
		Description: "local supplier volume by market segment",
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.GroupBy("c_mktsegment").Sum("c_acctbal").CountAll()
		},
	},
	{
		Name: "q6", Table: Lineitem, StartFrac: HotFrac, EndFrac: 1, Weight: 0.5,
		Description: "forecasting revenue change: selective filter over the hot year (I/O-bound)",
		pred: func(t scanshare.Tuple) bool {
			return t[4].F >= 0.05 && t[4].F <= 0.07 && t[2].F < 24
		},
		reads: []string{"l_discount", "l_quantity"},
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.Sum("l_extendedprice")
		},
	},
	{
		Name: "q7", Table: Lineitem, StartFrac: 5.0 / 7.0, EndFrac: 6.0 / 7.0, Weight: 1,
		Description: "volume shipping over the second-hottest year",
		pred:        func(t scanshare.Tuple) bool { return t[9].S == "SHIP" || t[9].S == "AIR" },
		reads:       []string{"l_shipmode"},
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.GroupBy("l_shipmode").Sum("l_extendedprice")
		},
	},
	{
		Name: "q8", Table: Orders, StartFrac: 0, EndFrac: 1, Weight: 1,
		Description: "market share: full orders scan",
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.Avg("o_totalprice").CountAll()
		},
	},
	{
		Name: "q9", Table: Part, StartFrac: 0, EndFrac: 1, Weight: 4,
		Description: "product type profit: CPU-heavy part rollup",
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.GroupBy("p_brand").CountAll().Avg("p_retailprice")
		},
	},
	{
		Name: "q10", Table: Lineitem, StartFrac: HotFrac, EndFrac: 1, Weight: 2,
		Description: "returned item reporting over the hot year",
		pred:        func(t scanshare.Tuple) bool { return t[6].S == "R" },
		reads:       []string{"l_returnflag"},
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.GroupBy("l_returnflag").Sum("l_extendedprice")
		},
	},
	{
		Name: "q11", Table: Part, StartFrac: 0, EndFrac: 1, Weight: 1,
		Description: "important stock identification",
		pred:        func(t scanshare.Tuple) bool { return t[5].S == "JUMBO PKG" },
		reads:       []string{"p_container"},
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.CountAll()
		},
	},
	{
		Name: "q12", Table: Lineitem, StartFrac: 0.5, EndFrac: 1, Weight: 1,
		Description: "shipping modes over the recent half of lineitem",
		pred:        func(t scanshare.Tuple) bool { return t[9].S == "MAIL" || t[9].S == "SHIP" },
		reads:       []string{"l_shipmode"},
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.GroupBy("l_linestatus").CountAll()
		},
	},
	{
		Name: "q13", Table: Customer, StartFrac: 0, EndFrac: 1, Weight: 1,
		Description: "customer distribution by nation",
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.GroupBy("c_nationkey").CountAll()
		},
	},
	{
		Name: "q14", Table: Lineitem, StartFrac: HotFrac, EndFrac: 1, Weight: 1,
		Description: "promotion effect over the hot year",
		pred:        func(t scanshare.Tuple) bool { return t[1].I%5 == 0 },
		reads:       []string{"l_partkey"},
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.Sum("l_extendedprice").CountAll()
		},
	},
	{
		Name: "q15", Table: Lineitem, StartFrac: 6.5 / 7.0, EndFrac: 1, Weight: 1,
		Description: "top supplier: last six months of lineitem",
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.GroupBy("l_shipmode").Sum("l_extendedprice")
		},
	},
	{
		Name: "q16", Table: Part, StartFrac: 0, EndFrac: 1, Weight: 2,
		Description: "parts/supplier relationship by type",
		pred:        func(t scanshare.Tuple) bool { return t[1].S != "Brand#45" },
		reads:       []string{"p_brand"},
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.GroupBy("p_type").CountAll()
		},
	},
	{
		Name: "q17", Table: Lineitem, StartFrac: 0, EndFrac: 1, Weight: 3,
		Description: "small-quantity-order revenue: full lineitem scan",
		pred:        func(t scanshare.Tuple) bool { return t[2].F < 5 },
		reads:       []string{"l_quantity"},
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.Avg("l_quantity").CountAll()
		},
	},
	{
		Name: "q18", Table: Orders, StartFrac: 0, EndFrac: 1, Weight: 2,
		Description: "large volume customers",
		pred:        func(t scanshare.Tuple) bool { return t[2].F > 90000 },
		reads:       []string{"o_totalprice"},
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.CountAll()
		},
	},
	{
		Name: "q19", Table: Lineitem, StartFrac: HotFrac, EndFrac: 1, Weight: 1.5,
		Description: "discounted revenue over the hot year",
		pred: func(t scanshare.Tuple) bool {
			return t[2].F >= 10 && t[2].F <= 30 && t[9].S == "AIR"
		},
		reads: []string{"l_quantity", "l_shipmode"},
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.Sum("l_extendedprice")
		},
	},
	{
		Name: "q20", Table: Part, StartFrac: 0, EndFrac: 1, Weight: 1,
		Description: "potential part promotion",
		pred:        func(t scanshare.Tuple) bool { return t[3].I < 10 },
		reads:       []string{"p_size"},
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.CountAll()
		},
	},
	{
		Name: "q21", Table: Lineitem, StartFrac: 0, EndFrac: 1, Weight: 1,
		Description: "suppliers who kept orders waiting: full I/O-heavy lineitem scan",
		pred:        func(t scanshare.Tuple) bool { return t[6].S == "R" },
		reads:       []string{"l_returnflag"},
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.GroupBy("l_linestatus").CountAll()
		},
	},
	{
		Name: "q22", Table: Customer, StartFrac: 0, EndFrac: 1, Weight: 1.5,
		Description: "global sales opportunity",
		pred:        func(t scanshare.Tuple) bool { return t[2].F > 0 },
		reads:       []string{"c_acctbal"},
		finish: func(q *scanshare.Query) *scanshare.Query {
			return q.GroupBy("c_mktsegment").Avg("c_acctbal")
		},
	},
}
