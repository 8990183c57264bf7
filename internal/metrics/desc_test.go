package metrics

import (
	"reflect"
	"testing"
	"time"
)

// checkTable asserts that every row of a descriptor table fills a distinct
// int64 (or time.Duration) field of S, of a kind that matches the field,
// and that every such field has a row.
func checkTable[S any](t *testing.T, rows []Desc[S]) {
	t.Helper()
	typ := reflect.TypeFor[S]()
	fieldAt := map[uintptr]reflect.StructField{}
	counterFields := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() == reflect.Int64 {
			fieldAt[f.Offset] = f
			counterFields++
		}
	}
	filled := map[string]string{}
	for _, d := range rows {
		f, ok := fieldAt[d.Off]
		if !ok {
			t.Fatalf("row %s: offset %d is not an int64 field of %s", d.Name, d.Off, typ)
		}
		if prev, dup := filled[f.Name]; dup {
			t.Errorf("rows %s and %s both fill %s.%s", prev, d.Name, typ, f.Name)
		}
		if (f.Type == reflect.TypeFor[time.Duration]()) != (d.Kind == KindSeconds) {
			t.Errorf("row %s: kind %d does not match field %s.%s of type %s", d.Name, d.Kind, typ, f.Name, f.Type)
		}
		filled[f.Name] = d.Name
	}
	if len(filled) != counterFields {
		for _, f := range fieldAt {
			if _, ok := filled[f.Name]; !ok {
				t.Errorf("field %s.%s has no row", typ, f.Name)
			}
		}
	}
}

// TestCollectorCountersTable checks the collector's one declaration of its
// counters: every counter field of CollectorStats has exactly one row and
// no two rows fill the same field. The telemetry package checks that each
// row renders exactly one exposition family.
func TestCollectorCountersTable(t *testing.T) {
	checkTable(t, CollectorCounters[:])
	if got := CollectorCounters[TraceDropped].Kind; got != KindMax {
		t.Errorf("TraceDropped kind %d, want KindMax", got)
	}
}

// TestTenantCountersTable is the same check for the tenant collector.
func TestTenantCountersTable(t *testing.T) {
	checkTable(t, TenantCounters[:])
}

// TestSnapshotDoesNotAllocate pins the table-driven Snapshot at zero heap
// allocations: RunRealtime takes one per call, so an escaping snapshot
// would cost every call of the service path an allocation.
func TestSnapshotDoesNotAllocate(t *testing.T) {
	var c Collector
	driveCollector(&c)
	var tc TenantCollector
	tc.Admitted(time.Millisecond)
	var sink CollectorStats
	var tsink TenantStats
	if n := testing.AllocsPerRun(100, func() {
		sink = c.Snapshot()
		tsink = tc.Snapshot("t")
	}); n != 0 {
		t.Errorf("Snapshot allocates %.1f times per call, want 0", n)
	}
	if sink.PagesRead == 0 || tsink.Admitted != 1 {
		t.Errorf("snapshots not taken: %+v / %+v", sink, tsink)
	}
}
