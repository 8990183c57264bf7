package scanshare

// TablePages returns the bytes of every page of t as the device holds them,
// for tests that compare two loads byte for byte.
func TablePages(t *Table) ([][]byte, error) {
	pages := make([][]byte, t.NumPages())
	for i := range pages {
		pid, err := t.tbl.PageID(i)
		if err != nil {
			return nil, err
		}
		if pages[i], err = t.eng.dev.ReadRaw(pid); err != nil {
			return nil, err
		}
	}
	return pages, nil
}
