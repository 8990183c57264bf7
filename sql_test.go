package scanshare_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"scanshare"
)

// sqlEngine builds an engine with a date-clustered "events" table of n rows
// spanning 700 days.
func sqlEngine(t *testing.T, poolPages, rows int) (*scanshare.Engine, *scanshare.Table) {
	t.Helper()
	eng, err := scanshare.New(scanshare.Config{
		BufferPoolPages: poolPages,
		Disk:            scanshare.DiskConfig{PageSize: 1024},
		Sharing:         scanshare.SharingConfig{PrefetchExtentPages: 4, MinSharePages: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := scanshare.MustSchema(
		scanshare.Field{Name: "day", Kind: scanshare.KindDate},
		scanshare.Field{Name: "qty", Kind: scanshare.KindFloat64},
		scanshare.Field{Name: "tag", Kind: scanshare.KindString},
		scanshare.Field{Name: "id", Kind: scanshare.KindInt64},
	)
	tbl, err := eng.LoadTable("events", schema, func(add func(scanshare.Tuple) error) error {
		for i := 0; i < rows; i++ {
			err := add(scanshare.Tuple{
				scanshare.Date(int64(i) * 700 / int64(rows)),
				scanshare.Float64(float64(i%50) + 0.5),
				scanshare.String([]string{"a", "b", "c"}[i%3]),
				scanshare.Int64(int64(i)),
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, tbl
}

func runOne(t *testing.T, eng *scanshare.Engine, q *scanshare.Query) scanshare.QueryResult {
	t.Helper()
	rep, err := eng.Run(scanshare.Baseline, []scanshare.Job{{Query: q}})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Results[0]
}

func TestSQLCountMatchesBuilder(t *testing.T) {
	eng, tbl := sqlEngine(t, 100, 3000)
	sqlQ, err := eng.SQL("SELECT count(*) FROM events WHERE qty > 25")
	if err != nil {
		t.Fatal(err)
	}
	builderQ := scanshare.NewQuery(tbl).
		Where(func(tup scanshare.Tuple) bool { return tup[1].F > 25 }).CountAll()
	a := runOne(t, eng, sqlQ)
	b := runOne(t, eng, builderQ)
	if fmt.Sprint(a.Rows) != fmt.Sprint(b.Rows) {
		t.Errorf("SQL %v != builder %v", a.Rows, b.Rows)
	}
	if a.Rows[0][0].I == 0 {
		t.Error("count is zero; predicate broken")
	}
}

func TestSQLGroupByAndAggregates(t *testing.T) {
	eng, _ := sqlEngine(t, 100, 3000)
	q := eng.MustSQL(`SELECT tag, count(*), sum(qty), avg(qty), min(id), max(id)
		FROM events GROUP BY tag`)
	res := runOne(t, eng, q)
	if len(res.Rows) != 3 {
		t.Fatalf("got %d groups, want 3", len(res.Rows))
	}
	var total int64
	for _, row := range res.Rows {
		if len(row) != 6 {
			t.Fatalf("row width %d, want 6", len(row))
		}
		total += row[1].I
	}
	if total != 3000 {
		t.Errorf("group counts sum to %d", total)
	}
}

func TestSQLClusteredPushdownSavesIO(t *testing.T) {
	eng, tbl := sqlEngine(t, 400, 6000)
	full := runOne(t, eng, eng.MustSQL("SELECT count(*) FROM events"))
	// The last ~50 of 700 days: a small tail of the clustered table.
	tail := runOne(t, eng, eng.MustSQL("SELECT count(*) FROM events WHERE day >= DATE '1993-10-12'"))
	if tail.PhysicalReads != 0 {
		// Pool holds the whole table after the full scan; re-run on a
		// fresh engine for a clean read count.
		t.Log("warm pool; checking page counts via logical reads instead")
	}
	if tail.LogicalReads >= full.LogicalReads/3 {
		t.Errorf("pushdown ineffective: tail scanned %d pages, full %d", tail.LogicalReads, full.LogicalReads)
	}
	// The counts must still be exact: predicate applies within the range.
	wantTail := int64(0)
	for i := 0; i < 6000; i++ {
		if int64(i)*700/6000 >= 650 {
			wantTail++
		}
	}
	if tail.Rows[0][0].I != wantTail {
		t.Errorf("tail count = %d, want %d", tail.Rows[0][0].I, wantTail)
	}
	_ = tbl
}

func TestSQLSelectStarAndProjection(t *testing.T) {
	eng, _ := sqlEngine(t, 100, 200)
	star := runOne(t, eng, eng.MustSQL("SELECT * FROM events LIMIT 3"))
	if len(star.Rows) != 3 || len(star.Rows[0]) != 4 {
		t.Errorf("star rows = %v", star.Rows)
	}
	proj := runOne(t, eng, eng.MustSQL("SELECT tag, id FROM events LIMIT 2"))
	if len(proj.Rows) != 2 || len(proj.Rows[0]) != 2 || proj.Rows[0][0].Kind != scanshare.KindString {
		t.Errorf("projected rows = %v", proj.Rows)
	}
}

func TestSQLDistinctViaGroupBy(t *testing.T) {
	eng, _ := sqlEngine(t, 100, 300)
	res := runOne(t, eng, eng.MustSQL("SELECT tag FROM events GROUP BY tag"))
	if len(res.Rows) != 3 {
		t.Errorf("distinct tags = %v", res.Rows)
	}
}

func TestSQLErrors(t *testing.T) {
	eng, _ := sqlEngine(t, 100, 100)
	bad := map[string]string{
		"SELEC * FROM events":                "sql:",
		"SELECT * FROM missing":              "no table",
		"SELECT ghost FROM events":           "unknown column",
		"SELECT id, count(*) FROM events":    "GROUP BY",
		"SELECT * FROM events WHERE qty + 1": "boolean",
		// Used to compile and answer [[0 0]].
		"SELECT sum(tag), avg(tag) FROM events": `"tag" of kind varchar`,
	}
	for stmt, wantSub := range bad {
		_, err := eng.SQL(stmt)
		if err == nil {
			t.Errorf("SQL(%q) succeeded", stmt)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("SQL(%q) error %q lacks %q", stmt, err, wantSub)
		}
	}
}

func TestMustSQLPanics(t *testing.T) {
	eng, _ := sqlEngine(t, 100, 100)
	defer func() {
		if recover() == nil {
			t.Error("MustSQL with bad statement did not panic")
		}
	}()
	eng.MustSQL("not sql at all")
}

func TestSQLQueriesShareScans(t *testing.T) {
	// Two concurrent SQL queries over the same table must share through
	// the SSM exactly like builder queries.
	run := func(mode scanshare.Mode) int64 {
		eng, _ := sqlEngine(t, 20, 4000)
		q1 := eng.MustSQL("SELECT sum(qty) FROM events")
		q2 := eng.MustSQL("SELECT count(*) FROM events WHERE qty > 10")
		rep, err := eng.Run(mode, []scanshare.Job{
			{Query: q1}, {Query: q2, Start: 10 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Disk.Reads
	}
	base := run(scanshare.Baseline)
	shared := run(scanshare.Shared)
	if shared >= base {
		t.Errorf("SQL queries did not share: %d vs %d reads", shared, base)
	}
}

func TestSQLOrderBy(t *testing.T) {
	eng, _ := sqlEngine(t, 100, 500)
	res := runOne(t, eng, eng.MustSQL("SELECT id, tag FROM events ORDER BY id DESC LIMIT 5"))
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row[0].I != int64(499-i) {
			t.Fatalf("row %d id = %d, want %d", i, row[0].I, 499-i)
		}
	}
	grouped := runOne(t, eng, eng.MustSQL("SELECT tag, count(*) FROM events GROUP BY tag ORDER BY tag DESC"))
	if len(grouped.Rows) != 3 || grouped.Rows[0][0].S != "c" || grouped.Rows[2][0].S != "a" {
		t.Errorf("grouped order = %v", grouped.Rows)
	}
}

func TestSQLOrderByRestoresSharedScanOrder(t *testing.T) {
	// A shared scan may wrap around mid-table, but ORDER BY output must
	// be identical in both modes, bit for bit.
	run := func(mode scanshare.Mode) string {
		eng, _ := sqlEngine(t, 20, 2000)
		q1 := eng.MustSQL("SELECT count(*) FROM events")
		q2 := eng.MustSQL("SELECT id FROM events ORDER BY id LIMIT 100")
		rep, err := eng.Run(mode, []scanshare.Job{
			{Query: q1},
			{Query: q2, Start: 20 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(rep.Results[1].Rows)
	}
	if base, shared := run(scanshare.Baseline), run(scanshare.Shared); base != shared {
		t.Error("ORDER BY output differs between modes")
	}
}

func TestSQLOrderByErrors(t *testing.T) {
	eng, _ := sqlEngine(t, 100, 100)
	for stmt, wantSub := range map[string]string{
		"SELECT tag, count(*) FROM events GROUP BY tag ORDER BY id": "GROUP BY column",
		"SELECT tag FROM events ORDER BY id":                        "selected column",
		"SELECT * FROM events ORDER BY ghost":                       "unknown",
	} {
		_, err := eng.SQL(stmt)
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("SQL(%q) error = %v, want %q", stmt, err, wantSub)
		}
	}
}

func TestSQLJoinEndToEnd(t *testing.T) {
	eng, _ := sqlEngine(t, 100, 600)
	_, err := eng.LoadTable("tags", scanshare.MustSchema(
		scanshare.Field{Name: "t_name", Kind: scanshare.KindString},
		scanshare.Field{Name: "t_desc", Kind: scanshare.KindString},
	), func(add func(scanshare.Tuple) error) error {
		for _, pair := range [][2]string{{"a", "alpha"}, {"b", "beta"}} { // no "c": inner join drops it
			if err := add(scanshare.Tuple{scanshare.String(pair[0]), scanshare.String(pair[1])}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	q := eng.MustSQL(`SELECT t_desc, count(*) FROM events JOIN tags ON tag = t_name
		WHERE qty > 0 GROUP BY t_desc ORDER BY t_desc`)
	res := runOne(t, eng, q)
	if len(res.Rows) != 2 {
		t.Fatalf("got %d groups: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0][0].S != "alpha" || res.Rows[1][0].S != "beta" {
		t.Errorf("groups = %v", res.Rows)
	}
	// events has 600 rows, tags a/b/c evenly: inner join keeps 400.
	if res.Rows[0][1].I+res.Rows[1][1].I != 400 {
		t.Errorf("joined counts = %v", res.Rows)
	}
}

func TestSQLJoinRejectsCollidingColumns(t *testing.T) {
	eng, _ := sqlEngine(t, 100, 50)
	_, err := eng.LoadTable("events2", demoSchema(), func(add func(scanshare.Tuple) error) error {
		return add(scanshare.Tuple{scanshare.Int64(1), scanshare.Float64(2), scanshare.String("x"), scanshare.Date(3)})
	})
	if err != nil {
		t.Fatal(err)
	}
	// demoSchema's "id"/"day" collide with the events schema's columns.
	if _, err := eng.SQL("SELECT count(*) FROM events JOIN events2 ON id = id"); err == nil {
		t.Error("colliding join schemas accepted")
	}
}

func TestCompileRealtimeScan(t *testing.T) {
	eng, tbl := sqlEngine(t, 100, 3000)
	pages := tbl.NumPages()

	full, err := eng.CompileRealtimeScan("SELECT count(*) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if full.Table.Name() != tbl.Name() || full.StartPage != 0 || full.EndPage != 0 {
		t.Errorf("full scan = table %q [%d,%d), want whole events table",
			full.Table.Name(), full.StartPage, full.EndPage)
	}

	// Per-tuple clauses fold away; the clustered-range predicate narrows
	// the page window. Days 650..700 are the last ~7% of the table.
	tail, err := eng.CompileRealtimeScan(
		"SELECT tag, count(*) FROM events WHERE day >= DATE '1993-10-12' GROUP BY tag LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if tail.Table.Name() != tbl.Name() {
		t.Errorf("tail scan table = %q", tail.Table.Name())
	}
	if tail.StartPage == 0 || tail.StartPage < pages*3/4 {
		t.Errorf("tail StartPage = %d of %d pages; range pushdown lost", tail.StartPage, pages)
	}
	if tail.EndPage != 0 {
		t.Errorf("tail EndPage = %d, want 0 (to end of table)", tail.EndPage)
	}

	// A bounded range sets an explicit EndPage inside the table.
	mid, err := eng.CompileRealtimeScan(
		"SELECT count(*) FROM events WHERE day BETWEEN DATE '1992-06-01' AND DATE '1993-01-01'")
	if err != nil {
		t.Fatal(err)
	}
	if mid.StartPage <= 0 || mid.EndPage <= mid.StartPage || mid.EndPage >= pages {
		t.Errorf("mid scan = [%d,%d) of %d pages, want interior window", mid.StartPage, mid.EndPage, pages)
	}

	_, err = eng.LoadTable("tags", scanshare.MustSchema(
		scanshare.Field{Name: "t_name", Kind: scanshare.KindString},
		scanshare.Field{Name: "t_desc", Kind: scanshare.KindString},
	), func(add func(scanshare.Tuple) error) error {
		return add(scanshare.Tuple{scanshare.String("a"), scanshare.String("alpha")})
	})
	if err != nil {
		t.Fatal(err)
	}
	for stmt, wantSub := range map[string]string{
		"SELECT count(*) FROM ghosts": "ghosts",
		"SELECT x FROM":               "",
		"SELECT t_desc FROM events JOIN tags ON tag = t_name": "single-table",
	} {
		if _, err := eng.CompileRealtimeScan(stmt); err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("CompileRealtimeScan(%q) error = %v, want %q", stmt, err, wantSub)
		}
	}
}
