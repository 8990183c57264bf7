package scanshare

import (
	"testing"

	"scanshare/internal/record"
)

// TestObserveRowPanicsOnKindMismatch keeps record.Compare's contract: the
// typed stats never compare a value with a column of another kind.
func TestObserveRowPanicsOnKindMismatch(t *testing.T) {
	schema := record.MustSchema(
		record.Field{Name: "k", Kind: record.KindInt64},
		record.Field{Name: "d", Kind: record.KindDate},
	)
	for _, row := range []Tuple{
		{record.Int64(1), record.Int64(2)},    // a bigint where a date belongs
		{record.String("x"), record.Date(2)},  // a varchar where a bigint belongs
		{record.Int64(1), record.Float64(.5)}, // a double where a date belongs
	} {
		stats := newColStats(schema)
		observeRow(stats, Tuple{record.Int64(0), record.Date(0)})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("observing %v did not panic", row)
				}
			}()
			observeRow(stats, row)
		}()
	}
}
