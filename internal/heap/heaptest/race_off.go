//go:build !race

package heaptest

// RaceEnabled reports whether the race detector is compiled in. It
// instruments allocations, so exact allocation counts only hold without it.
const RaceEnabled = false
