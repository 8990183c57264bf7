package main

import (
	"fmt"
	"math"
	"sort"

	"scanshare"
)

// sumTolerance is the relative error allowed between two float sums of the
// same values taken in a different order.
const sumTolerance = 1e-9

// rowsDiffer compares two result sets position by position: keys, counts and
// strings exactly, float sums to sumTolerance. It returns "" when they agree,
// else what differs.
func rowsDiffer(got, want []scanshare.Tuple) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d has %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j, w := range want[i] {
			g := got[i][j]
			same := g.Kind == w.Kind && g.I == w.I && g.S == w.S
			if same && w.Kind == scanshare.KindFloat64 {
				same = math.Abs(g.F-w.F) <= sumTolerance*math.Max(math.Abs(g.F), math.Abs(w.F))
			}
			if !same {
				return fmt.Sprintf("row %d column %d is %#v, want %#v", i, j, g, w)
			}
		}
	}
	return ""
}

// mergePartials adds up partial GROUP BY results whose leading keyCols
// columns are the group key and whose remaining columns are sums and counts,
// and returns the merged rows in key order — the order the program's own
// aggregation emits.
func mergePartials(partials [][]scanshare.Tuple, keyCols int) []scanshare.Tuple {
	merged := make(map[string]scanshare.Tuple)
	for _, rows := range partials {
		for _, row := range rows {
			key := string(scanshare.EncodeAggRows([]scanshare.Tuple{row[:keyCols]}))
			acc, ok := merged[key]
			if !ok {
				merged[key] = append(scanshare.Tuple(nil), row...)
				continue
			}
			for j := keyCols; j < len(row); j++ {
				acc[j].I += row[j].I
				acc[j].F += row[j].F
			}
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]scanshare.Tuple, len(keys))
	for i, k := range keys {
		out[i] = merged[k]
	}
	return out
}
