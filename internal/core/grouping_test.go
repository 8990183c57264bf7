package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"scanshare/internal/heap/heaptest"
)

// place registers a scan and drives it to the given table position via one
// progress report at the given time.
func placeAt(t *testing.T, m *Manager, table TableID, tablePages, pos int, now time.Duration) ScanID {
	t.Helper()
	id, _, err := m.StartScan(ScanOpts{Table: table, TablePages: tablePages}, now)
	if err != nil {
		t.Fatal(err)
	}
	if pos > 0 {
		report(t, m, id, pos, now+time.Second)
	}
	return id
}

func noPlacementConfig(budget int) Config {
	cfg := DefaultConfig(budget)
	cfg.Placement = false
	return cfg
}

func TestGroupingMergesClosePairsOnly(t *testing.T) {
	m := MustNewManager(noPlacementConfig(100))
	a := placeAt(t, m, 1, 1000, 10, 0)
	b := placeAt(t, m, 1, 1000, 50, 0)
	c := placeAt(t, m, 1, 1000, 500, 0)
	snap := m.Snapshot()
	if len(snap.Groups) != 1 {
		t.Fatalf("got %d groups, want 1: %s", len(snap.Groups), snap)
	}
	g := snap.Groups[0]
	if g.Trailer != a || g.Leader != b || g.ExtentPages != 40 {
		t.Errorf("group = %+v, want trailer %d leader %d extent 40", g, a, b)
	}
	for _, member := range g.Members {
		if member == c {
			t.Error("distant scan was grouped")
		}
	}
}

func TestGroupingRespectsGlobalBudget(t *testing.T) {
	// Two pairs of scans, distances 30 and 40. Budget 50 admits only the
	// closer pair.
	m := MustNewManager(noPlacementConfig(50))
	placeAt(t, m, 1, 1000, 100, 0)
	placeAt(t, m, 1, 1000, 130, 0) // pair distance 30
	placeAt(t, m, 2, 1000, 200, 0)
	placeAt(t, m, 2, 1000, 240, 0) // pair distance 40
	snap := m.Snapshot()
	if len(snap.Groups) != 1 {
		t.Fatalf("got %d groups, want 1 (budget): %s", len(snap.Groups), snap)
	}
	if snap.Groups[0].ExtentPages != 30 {
		t.Errorf("admitted group extent = %d, want the closer pair (30)", snap.Groups[0].ExtentPages)
	}
}

func TestGroupingBuildsChains(t *testing.T) {
	m := MustNewManager(noPlacementConfig(1000))
	a := placeAt(t, m, 1, 5000, 100, 0)
	b := placeAt(t, m, 1, 5000, 110, 0)
	c := placeAt(t, m, 1, 5000, 125, 0)
	d := placeAt(t, m, 1, 5000, 150, 0)
	snap := m.Snapshot()
	if len(snap.Groups) != 1 {
		t.Fatalf("got %d groups, want 1 chain: %s", len(snap.Groups), snap)
	}
	g := snap.Groups[0]
	if g.Trailer != a || g.Leader != d || g.ExtentPages != 50 || len(g.Members) != 4 {
		t.Errorf("chain group = %+v", g)
	}
	want := []ScanID{a, b, c, d}
	for i, member := range g.Members {
		if member != want[i] {
			t.Errorf("member %d = %d, want %d (circular order)", i, member, want[i])
		}
	}
}

func TestGroupingNeverClosesFullCircle(t *testing.T) {
	// Scans spread evenly with a huge budget: merging all adjacent pairs
	// plus the wrap pair would make a cycle with no leader; the algorithm
	// must leave one link open.
	m := MustNewManager(noPlacementConfig(1_000_000))
	ids := make([]ScanID, 4)
	for i := range ids {
		ids[i] = placeAt(t, m, 1, 400, i*100, 0)
	}
	snap := m.Snapshot()
	if len(snap.Groups) != 1 {
		t.Fatalf("got %d groups: %s", len(snap.Groups), snap)
	}
	g := snap.Groups[0]
	if len(g.Members) != 4 {
		t.Fatalf("group has %d members, want 4", len(g.Members))
	}
	if g.Leader == g.Trailer {
		t.Error("cycle: leader equals trailer in multi-member group")
	}
	if g.ExtentPages != 300 {
		t.Errorf("extent = %d, want 300 (one link open)", g.ExtentPages)
	}
}

func TestTwoScansGroupAcrossWrapPoint(t *testing.T) {
	// One scan at page 990, one at page 10 of a 1000-page table: circular
	// distance is 20, so they must group with the 990-scan as trailer.
	m := MustNewManager(noPlacementConfig(100))
	a := placeAt(t, m, 1, 1000, 990, 0)
	b := placeAt(t, m, 1, 1000, 10, 0)
	snap := m.Snapshot()
	if len(snap.Groups) != 1 {
		t.Fatalf("wrap pair not grouped: %s", snap)
	}
	g := snap.Groups[0]
	if g.Trailer != a || g.Leader != b || g.ExtentPages != 20 {
		t.Errorf("group = %+v, want trailer %d leader %d extent 20", g, a, b)
	}
}

func TestScansOnDifferentTablesNeverGroup(t *testing.T) {
	m := MustNewManager(noPlacementConfig(10000))
	placeAt(t, m, 1, 1000, 100, 0)
	placeAt(t, m, 2, 1000, 100, 0)
	if snap := m.Snapshot(); len(snap.Groups) != 0 {
		t.Errorf("cross-table group formed: %s", snap)
	}
}

func TestGroupDissolvesWhenMemberEnds(t *testing.T) {
	m := MustNewManager(noPlacementConfig(1000))
	a := placeAt(t, m, 1, 1000, 100, 0)
	b := placeAt(t, m, 1, 1000, 120, 0)
	if snap := m.Snapshot(); len(snap.Groups) != 1 {
		t.Fatalf("setup: %s", snap)
	}
	if err := m.EndScan(b, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if snap := m.Snapshot(); len(snap.Groups) != 0 {
		t.Errorf("group survived member end: %s", snap)
	}
	_ = a
}

func TestGroupingIsDeterministic(t *testing.T) {
	build := func() Snapshot {
		m := MustNewManager(noPlacementConfig(500))
		positions := []int{10, 40, 45, 300, 310, 700}
		for _, p := range positions {
			placeAt(t, m, 1, 1000, p, 0)
		}
		return m.Snapshot()
	}
	first := build()
	for i := 0; i < 5; i++ {
		again := build()
		if first.String() != again.String() {
			t.Fatalf("grouping not deterministic:\n%s\nvs\n%s", first, again)
		}
	}
}

// TestGroupingInvariantsProperty checks structural invariants over random
// scan populations:
//   - every scan appears in at most one group,
//   - every group has >= 2 members, a trailer, a leader, one table,
//   - total extent across groups never exceeds the budget,
//   - extents equal the circular trailer->leader distance.
func TestGroupingInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		budget := 50 + rng.Intn(2000)
		m := MustNewManager(noPlacementConfig(budget))
		tables := 1 + rng.Intn(3)
		tablePages := 500 + rng.Intn(2000)
		n := 2 + rng.Intn(10)
		for i := 0; i < n; i++ {
			id, _, err := m.StartScan(ScanOpts{
				Table:      TableID(rng.Intn(tables)),
				TablePages: tablePages,
			}, 0)
			if err != nil {
				return false
			}
			if pos := rng.Intn(tablePages); pos > 0 {
				if _, err := m.ReportProgress(id, pos, time.Second); err != nil {
					return false
				}
			}
		}
		snap := m.Snapshot()
		seen := map[ScanID]bool{}
		scanByID := map[ScanID]ScanInfo{}
		for _, s := range snap.Scans {
			scanByID[s.ID] = s
		}
		total := 0
		for _, g := range snap.Groups {
			if len(g.Members) < 2 {
				return false
			}
			if g.Members[0] != g.Trailer || g.Members[len(g.Members)-1] != g.Leader {
				return false
			}
			for _, member := range g.Members {
				if seen[member] {
					return false
				}
				seen[member] = true
				if scanByID[member].Table != g.Table {
					return false
				}
			}
			dist := scanByID[g.Leader].Position - scanByID[g.Trailer].Position
			if dist < 0 {
				dist += tablePages
			}
			if dist != g.ExtentPages {
				return false
			}
			total += g.ExtentPages
		}
		return total <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestReportProgressDoesNotAllocate pins the manager's hot path: eight scans
// of one table advancing in lock step (one group, the shape a shared
// workload keeps the manager in), no event listener. Every report moves a
// scan, so every report regroups — out of storage the manager already owns.
func TestReportProgressDoesNotAllocate(t *testing.T) {
	if heaptest.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	cfg := DefaultConfig(1000)
	cfg.PrefetchExtentPages = 8
	m := MustNewManager(cfg)
	ids := make([]ScanID, 8)
	for i := range ids {
		ids[i], _ = startScan(t, m, 1, 1<<40, 0)
	}
	i := 0
	step := func() {
		round := i/len(ids) + 1
		if _, err := m.ReportProgress(ids[i%len(ids)], round*8, time.Duration(round)*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range 4 * len(ids) {
		step() // warm-up: both group lists and the scratch maps are sized
	}
	if got := testing.AllocsPerRun(200, step); got != 0 {
		t.Errorf("a steady-state progress report allocates %v times, want 0", got)
	}
	if snap := m.Snapshot(); len(snap.Groups) != 1 || len(snap.Groups[0].Members) != len(ids) {
		t.Fatalf("scans did not stay one group: %v", snap)
	}
}
