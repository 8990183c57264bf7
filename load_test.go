package scanshare_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"scanshare"
	"scanshare/internal/disk"
	"scanshare/internal/heap/heaptest"
)

// checkAgainstReference holds a table the engine loaded to what
// heaptest.RefLoad made of the same rows: the same pages byte for byte, the
// same counts, and the same ColumnRange and Clustered for every column.
func checkAgainstReference(t *testing.T, tbl *scanshare.Table, ref *heaptest.RefTable) {
	t.Helper()
	if tbl.NumPages() != len(ref.Pages) || tbl.NumTuples() != ref.Tuples {
		t.Fatalf("%d pages, %d tuples; reference %d pages, %d tuples", tbl.NumPages(), tbl.NumTuples(), len(ref.Pages), ref.Tuples)
	}
	pages, err := scanshare.TablePages(tbl)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pages {
		if !bytes.Equal(pages[i], ref.Pages[i]) {
			t.Fatalf("page %d differs from the reference (%d vs %d bytes)", i, len(pages[i]), len(ref.Pages[i]))
		}
	}
	schema := tbl.Schema()
	for i, want := range ref.Stats {
		name := schema.Field(i).Name
		min, max, ok := tbl.ColumnRange(name)
		if ok != want.Seen || ok && (!heaptest.SameValue(min, want.Min) || !heaptest.SameValue(max, want.Max)) {
			t.Errorf("ColumnRange(%s) = %#v..%#v %v, reference %#v..%#v %v", name, min, max, ok, want.Min, want.Max, want.Seen)
		}
		if got := tbl.Clustered(name); got != (want.Seen && want.Monotone) {
			t.Errorf("Clustered(%s) = %v, reference %v", name, got, !got)
		}
	}
}

// randomTable draws a schema over all four kinds and rows for it. Each
// column follows one pattern — increasing, constant, random, increasing with
// one late drop, or decreasing — so clustered and unclustered columns both
// occur. Doubles mix NaN, ±0 and ±Inf, only NaN, or only ±0 into their
// pattern (only NaN keeps an increasing column clustered); a varchar is a
// short value from a small set or runs up to half a page over the row, so
// rows regularly overflow a page mid-append.
func randomTable(rng *rand.Rand, pageSize int) (*scanshare.Schema, []scanshare.Tuple) {
	fields := make([]scanshare.Field, 1+rng.Intn(7))
	for i := range fields {
		fields[i] = scanshare.Field{Name: fmt.Sprintf("c%d", i), Kind: scanshare.Kind(rng.Intn(4))}
	}
	rows := make([]scanshare.Tuple, 1+rng.Intn(400))
	for i := range rows {
		rows[i] = make(scanshare.Tuple, len(fields))
	}
	// A row of long varchars only can take half a page.
	longest := pageSize / (2 * len(fields))
	words := []string{"", "A", "N", "R", "MAIL", "TRUCK"}
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	specialSets := [][]float64{{nan, 0, negZero, math.Inf(1), math.Inf(-1)}, {nan}, {0, negZero}}
	for c, f := range fields {
		pattern := rng.Intn(5)
		specials := specialSets[rng.Intn(len(specialSets))]
		drop := len(rows) * 3 / 4
		for r := range rows {
			// key is the column's position in its pattern.
			key := int64(r)
			switch pattern {
			case 1:
				key = 7
			case 2:
				key = rng.Int63n(1000) - 500
			case 3:
				if r == drop {
					key = -1
				}
			case 4:
				key = int64(len(rows) - r)
			}
			var v scanshare.Value
			switch f.Kind {
			case scanshare.KindInt64:
				v = scanshare.Int64(key)
			case scanshare.KindDate:
				v = scanshare.Date(key)
			case scanshare.KindFloat64:
				v = scanshare.Float64(float64(key) / 4)
				if rng.Intn(8) == 0 {
					v = scanshare.Float64(specials[rng.Intn(len(specials))])
				}
			case scanshare.KindString:
				if rng.Intn(2) == 0 {
					v = scanshare.String(words[rng.Intn(len(words))])
				} else {
					v = scanshare.String(fmt.Sprintf("%06d", key+500) + strings.Repeat("x", rng.Intn(longest)))
				}
			}
			rows[r][c] = v
		}
	}
	return scanshare.MustSchema(fields...), rows
}

// badRow returns a tuple the loader must reject, or nil when the schema
// admits none of the kind asked for: 0 is a row too large for any page, 1 a
// row whose last value has the wrong kind (so the fields before it encode
// before the error), 2 a row one value short.
func badRow(schema *scanshare.Schema, good scanshare.Tuple, pageSize, which int) scanshare.Tuple {
	bad := append(scanshare.Tuple(nil), good...)
	last := len(bad) - 1
	switch which {
	case 0:
		for i := range bad {
			if schema.Field(i).Kind == scanshare.KindString {
				bad[i] = scanshare.String(strings.Repeat("o", pageSize))
				return bad
			}
		}
		return nil
	case 1:
		if bad[last].Kind == scanshare.KindString {
			bad[last] = scanshare.Int64(1)
		} else {
			bad[last] = scanshare.String("wrong kind")
		}
		return bad
	default:
		return bad[:last]
	}
}

// TestLoadMatchesReference is the byte-identity oracle over random tables:
// the engine's loader, fed one reused tuple and a rejected row now and then,
// must build exactly what the reference builds from fresh tuples and only
// the good rows.
func TestLoadMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pageSize := 256 << rng.Intn(3)
			schema, rows := randomTable(rng, pageSize)
			model := disk.Model{SeekTime: time.Millisecond, TransferPerPage: 100 * time.Microsecond, PageSize: pageSize}

			ref, err := heaptest.RefLoad(disk.MustNew(model, 0), schema, func(add func(scanshare.Tuple) error) error {
				for _, row := range rows {
					if err := add(row.Clone()); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			eng := scanshare.MustNew(scanshare.Config{BufferPoolPages: 8, Disk: scanshare.DiskConfig{
				SeekTime: model.SeekTime, TransferPerPage: model.TransferPerPage, PageSize: pageSize,
			}})
			rejected := 0
			tbl, err := eng.LoadTable("t", schema, func(add func(scanshare.Tuple) error) error {
				var tup scanshare.Tuple
				for i, row := range rows {
					if i%17 == 3 {
						if bad := badRow(schema, row, pageSize, i%3); bad != nil {
							if err := add(bad); err == nil {
								return fmt.Errorf("row %d: bad row %d accepted", i, i%3)
							}
							rejected++
						}
					}
					tup = append(tup[:0], row...)
					if err := add(tup); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) > 60 && rejected == 0 {
				t.Fatal("no bad row was tried")
			}
			checkAgainstReference(t, tbl, ref)
		})
	}
}

// TestLoadTableAllocations pins the load path's allocation ceiling: with a
// generator that reuses its tuple, ten times the rows costs no more
// allocations than two per extra page — the page the builder lays out and
// the device's copy of it — plus a small constant. Nothing is allocated per
// row.
func TestLoadTableAllocations(t *testing.T) {
	if heaptest.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	schema := scanshare.MustSchema(
		scanshare.Field{Name: "id", Kind: scanshare.KindInt64},
		scanshare.Field{Name: "v", Kind: scanshare.KindFloat64},
		scanshare.Field{Name: "tag", Kind: scanshare.KindString},
		scanshare.Field{Name: "day", Kind: scanshare.KindDate},
	)
	tags := []string{"A", "N", "R"}
	load := func(rows int) (allocs float64, pages int) {
		allocs = testing.AllocsPerRun(3, func() {
			eng := scanshare.MustNew(scanshare.Config{BufferPoolPages: 8})
			tbl, err := eng.LoadTable("t", schema, func(add func(scanshare.Tuple) error) error {
				tup := make(scanshare.Tuple, 0, 4)
				for i := 0; i < rows; i++ {
					tup = append(tup[:0],
						scanshare.Int64(int64(i)),
						scanshare.Float64(float64(i%97)),
						scanshare.String(tags[i%len(tags)]),
						scanshare.Date(int64(i/100)))
					if err := add(tup); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			pages = tbl.NumPages()
		})
		return allocs, pages
	}
	smallAllocs, smallPages := load(2_000)
	bigAllocs, bigPages := load(20_000)
	const slack = 16
	t.Logf("%d rows: %v allocs, %d pages; %d rows: %v allocs, %d pages", 2_000, smallAllocs, smallPages, 20_000, bigAllocs, bigPages)
	if extra := bigAllocs - smallAllocs; extra > float64(2*(bigPages-smallPages)+slack) {
		t.Errorf("loading 20000 rows (%d pages) allocates %v times, 2000 rows (%d pages) %v: %v extra for %d extra pages, want <= 2 × pages + %d",
			bigPages, bigAllocs, smallPages, smallAllocs, extra, bigPages-smallPages, slack)
	}
}
