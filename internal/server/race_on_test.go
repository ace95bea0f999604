//go:build race

package server

// raceEnabled reports whether the race detector is on; it drops pooled
// buffers at random, so allocation counts are only enforced without it.
const raceEnabled = true
