// Package workload generates the deterministic TPC-H-like database and the
// 22-query battery that the experiment harness runs.
//
// The paper evaluates on a 100 GB TPC-H database with a buffer pool of about
// 5% of the database size, five concurrent query streams, and per-query
// experiments around the CPU-bound Q1 and the I/O-bound Q6. This package
// reproduces that setting at laptop scale:
//
//   - four tables with TPC-H-like roles and size ratios (lineitem dominates),
//   - every table physically clustered on its date/key column, so that a
//     range predicate on that column maps onto a contiguous page range —
//     the property the paper's "7 years of data, analysts hit the last
//     year" hot-spot scenario relies on,
//   - 22 query templates mixing full scans and hot-range scans at different
//     CPU weights, including faithful Q1 and Q6 analogs,
//   - TPC-H-style per-stream query permutations.
//
// Generation is seeded and deterministic: the same GenConfig always yields
// byte-identical tables.
package workload

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"scanshare"
)

// Days of data: seven years, the horizon of the paper's motivating
// data-warehouse scenario. The "hot" last year is the final 1/7th.
const (
	DataDays    = 7 * 365
	HotStartDay = 6 * 365
)

// HotFrac is the fraction of each date-clustered table occupied by the hot
// last year.
const HotFrac = float64(HotStartDay) / float64(DataDays)

// GenConfig sizes the generated database.
type GenConfig struct {
	// ScaleFactor scales all table cardinalities. 1.0 yields roughly
	// 40k lineitem rows (~350 pages at 8 KiB). Must be positive.
	ScaleFactor float64
	// Seed drives all value generation.
	Seed int64
}

// Rows per table at scale factor 1, preserving TPC-H's relative sizes.
const (
	lineitemRowsSF1 = 40000
	ordersRowsSF1   = 10000
	partRowsSF1     = 2000
	customerRowsSF1 = 1500
)

// DB bundles the generated tables.
type DB struct {
	Lineitem *scanshare.Table
	Orders   *scanshare.Table
	Part     *scanshare.Table
	Customer *scanshare.Table
}

// Tables returns all tables, largest first.
func (db *DB) Tables() []*scanshare.Table {
	return []*scanshare.Table{db.Lineitem, db.Orders, db.Part, db.Customer}
}

// TotalPages returns the page count of the whole database.
func (db *DB) TotalPages() int {
	total := 0
	for _, t := range db.Tables() {
		total += t.NumPages()
	}
	return total
}

var (
	returnFlags  = []string{"A", "N", "R"}
	lineStatuses = []string{"O", "F"}
	shipModes    = []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"}
	priorities   = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	orderStati   = []string{"F", "O", "P"}
	segments     = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	brands       = []string{"Brand#11", "Brand#12", "Brand#21", "Brand#23", "Brand#34", "Brand#45", "Brand#55"}
	containers   = []string{"SM CASE", "SM BOX", "LG CASE", "LG BOX", "MED BAG", "JUMBO PKG"}
	types        = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
)

// LineitemSchema returns the lineitem schema (clustered on l_shipdate).
func LineitemSchema() *scanshare.Schema {
	return scanshare.MustSchema(
		scanshare.Field{Name: "l_orderkey", Kind: scanshare.KindInt64},
		scanshare.Field{Name: "l_partkey", Kind: scanshare.KindInt64},
		scanshare.Field{Name: "l_quantity", Kind: scanshare.KindFloat64},
		scanshare.Field{Name: "l_extendedprice", Kind: scanshare.KindFloat64},
		scanshare.Field{Name: "l_discount", Kind: scanshare.KindFloat64},
		scanshare.Field{Name: "l_tax", Kind: scanshare.KindFloat64},
		scanshare.Field{Name: "l_returnflag", Kind: scanshare.KindString},
		scanshare.Field{Name: "l_linestatus", Kind: scanshare.KindString},
		scanshare.Field{Name: "l_shipdate", Kind: scanshare.KindDate},
		scanshare.Field{Name: "l_shipmode", Kind: scanshare.KindString},
	)
}

// OrdersSchema returns the orders schema (clustered on o_orderdate).
func OrdersSchema() *scanshare.Schema {
	return scanshare.MustSchema(
		scanshare.Field{Name: "o_orderkey", Kind: scanshare.KindInt64},
		scanshare.Field{Name: "o_custkey", Kind: scanshare.KindInt64},
		scanshare.Field{Name: "o_totalprice", Kind: scanshare.KindFloat64},
		scanshare.Field{Name: "o_orderdate", Kind: scanshare.KindDate},
		scanshare.Field{Name: "o_orderpriority", Kind: scanshare.KindString},
		scanshare.Field{Name: "o_orderstatus", Kind: scanshare.KindString},
	)
}

// PartSchema returns the part schema (clustered on p_partkey).
func PartSchema() *scanshare.Schema {
	return scanshare.MustSchema(
		scanshare.Field{Name: "p_partkey", Kind: scanshare.KindInt64},
		scanshare.Field{Name: "p_brand", Kind: scanshare.KindString},
		scanshare.Field{Name: "p_type", Kind: scanshare.KindString},
		scanshare.Field{Name: "p_size", Kind: scanshare.KindInt64},
		scanshare.Field{Name: "p_retailprice", Kind: scanshare.KindFloat64},
		scanshare.Field{Name: "p_container", Kind: scanshare.KindString},
	)
}

// CustomerSchema returns the customer schema (clustered on c_custkey).
func CustomerSchema() *scanshare.Schema {
	return scanshare.MustSchema(
		scanshare.Field{Name: "c_custkey", Kind: scanshare.KindInt64},
		scanshare.Field{Name: "c_nationkey", Kind: scanshare.KindInt64},
		scanshare.Field{Name: "c_acctbal", Kind: scanshare.KindFloat64},
		scanshare.Field{Name: "c_mktsegment", Kind: scanshare.KindString},
	)
}

// intn draws what rand.Rand.Intn(n) draws for a fixed n in [1, 2^31): the
// same number from the same source, with the rejection bound and a
// reciprocal for the remainder worked out once, so that a draw divides
// nothing. The loaders draw millions of times from a few fixed ranges.
type intn struct {
	n, max int32
	m      uint64 // ^uint64(0)/n + 1, for v % n by multiplication (Lemire's fastmod)
}

func newIntn(n int) intn {
	return intn{n: int32(n), max: int32((1 << 31) - 1 - (1<<31)%uint32(n)), m: ^uint64(0)/uint64(n) + 1}
}

func (d intn) draw(r *rand.Rand) int {
	if d.n&(d.n-1) == 0 { // a power of two: Int31n masks
		return int(r.Int31() & (d.n - 1))
	}
	v := r.Int31()
	for v > d.max {
		v = r.Int31()
	}
	rem, _ := bits.Mul64(d.m*uint64(v), uint64(d.n))
	return int(rem)
}

// Load generates the database into eng.
func Load(eng *scanshare.Engine, cfg GenConfig) (*DB, error) {
	if cfg.ScaleFactor <= 0 {
		return nil, fmt.Errorf("workload: non-positive scale factor %g", cfg.ScaleFactor)
	}
	rows := func(sf1 int) int {
		n := int(float64(sf1) * cfg.ScaleFactor)
		if n < 1 {
			n = 1
		}
		return n
	}

	db := &DB{}
	var err error

	nLine := rows(lineitemRowsSF1)
	db.Lineitem, err = eng.LoadTable("lineitem", LineitemSchema(), func(add func(scanshare.Tuple) error) error {
		rng := rand.New(rand.NewSource(cfg.Seed))
		qtys, orders, parts := newIntn(50), newIntn(nLine/2+1), newIntn(rows(partRowsSF1))
		discounts, taxes := newIntn(11), newIntn(9)
		flags, stati, modes := newIntn(len(returnFlags)), newIntn(len(lineStatuses)), newIntn(len(shipModes))
		var t scanshare.Tuple // one tuple for every row: add keeps nothing of it
		for i := 0; i < nLine; i++ {
			// Clustered on shipdate: dates increase with row order.
			day := int64(i) * DataDays / int64(nLine)
			qty := float64(1 + qtys.draw(rng))
			price := qty * (900 + 200*rng.Float64())
			t = append(t[:0],
				scanshare.Int64(int64(1+orders.draw(rng))),
				scanshare.Int64(int64(1+parts.draw(rng))),
				scanshare.Float64(qty),
				scanshare.Float64(price),
				scanshare.Float64(float64(discounts.draw(rng))/100),
				scanshare.Float64(float64(taxes.draw(rng))/100),
				scanshare.String(returnFlags[flags.draw(rng)]),
				scanshare.String(lineStatuses[stati.draw(rng)]),
				scanshare.Date(day),
				scanshare.String(shipModes[modes.draw(rng)]),
			)
			if err := add(t); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	nOrders := rows(ordersRowsSF1)
	db.Orders, err = eng.LoadTable("orders", OrdersSchema(), func(add func(scanshare.Tuple) error) error {
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		custs, prios, stati := newIntn(rows(customerRowsSF1)), newIntn(len(priorities)), newIntn(len(orderStati))
		var t scanshare.Tuple
		for i := 0; i < nOrders; i++ {
			day := int64(i) * DataDays / int64(nOrders)
			t = append(t[:0],
				scanshare.Int64(int64(i+1)),
				scanshare.Int64(int64(1+custs.draw(rng))),
				scanshare.Float64(1000+99000*rng.Float64()),
				scanshare.Date(day),
				scanshare.String(priorities[prios.draw(rng)]),
				scanshare.String(orderStati[stati.draw(rng)]),
			)
			if err := add(t); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	nPart := rows(partRowsSF1)
	db.Part, err = eng.LoadTable("part", PartSchema(), func(add func(scanshare.Tuple) error) error {
		rng := rand.New(rand.NewSource(cfg.Seed + 2))
		var t scanshare.Tuple
		for i := 0; i < nPart; i++ {
			t = append(t[:0],
				scanshare.Int64(int64(i+1)),
				scanshare.String(brands[rng.Intn(len(brands))]),
				scanshare.String(types[rng.Intn(len(types))]),
				scanshare.Int64(int64(1+rng.Intn(50))),
				scanshare.Float64(900+200*rng.Float64()),
				scanshare.String(containers[rng.Intn(len(containers))]),
			)
			if err := add(t); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	nCust := rows(customerRowsSF1)
	db.Customer, err = eng.LoadTable("customer", CustomerSchema(), func(add func(scanshare.Tuple) error) error {
		rng := rand.New(rand.NewSource(cfg.Seed + 3))
		var t scanshare.Tuple
		for i := 0; i < nCust; i++ {
			t = append(t[:0],
				scanshare.Int64(int64(i+1)),
				scanshare.Int64(int64(rng.Intn(25))),
				scanshare.Float64(-999+10999*rng.Float64()),
				scanshare.String(segments[rng.Intn(len(segments))]),
			)
			if err := add(t); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

// BufferPoolFor returns the paper's buffer sizing — frac (typically 0.05) of
// the database's page count — for a database generated at the given scale.
// It exists so harnesses can size the pool before loading data; the estimate
// is derived from the generators' row sizes and is validated in tests to be
// within a few percent of the real page count.
func BufferPoolFor(cfg GenConfig, pageSize int, frac float64) int {
	if pageSize <= 0 {
		pageSize = 8192
	}
	// Mean row bytes per table, record.EncodedSize (measured; stable
	// because field sizes are fixed except short varchars). Page
	// boundaries are the row layout's, so its 2-byte slot per tuple is
	// what the estimate adds, whatever the page holds column-major.
	estBytes := cfg.ScaleFactor * (lineitemRowsSF1*77 + ordersRowsSF1*49 + partRowsSF1*48 + customerRowsSF1*35)
	pages := estBytes / float64(pageSize) * 1.04 // the row layout's slot per tuple
	n := int(pages * frac)
	if n < 8 {
		n = 8
	}
	return n
}

// DefaultThinkTime is the think-time helper used between stream queries in
// tests; TPC-H throughput runs use zero think time, as does the harness.
const DefaultThinkTime = 0 * time.Second
