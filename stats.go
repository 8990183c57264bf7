package scanshare

// ColumnRange returns the minimum and maximum value the named column held at
// load time (heap.ColumnStats, folded page by page as the table was built).
// ok is false when the column is unknown or the table is empty.
func (t *Table) ColumnRange(column string) (min, max Value, ok bool) {
	ord, err := t.Schema().Ordinal(column)
	if err != nil {
		return Value{}, Value{}, false
	}
	return t.tbl.ColumnStats(ord).Range()
}

// Clustered reports whether the named column arrived in non-decreasing
// insertion order, i.e. whether the table is physically clustered on it. A
// range predicate on a clustered column maps to a contiguous page range.
func (t *Table) Clustered(column string) bool {
	ord, err := t.Schema().Ordinal(column)
	if err != nil {
		return false
	}
	return t.tbl.ColumnStats(ord).Monotone()
}
