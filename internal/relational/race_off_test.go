//go:build !race

package relational

// RaceEnabled reports whether the race detector is on: its
// instrumentation allocates, so allocation counts are only enforced
// without it.
const RaceEnabled = false
