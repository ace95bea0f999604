//go:build !race

package walcrash

// raceEnabled shortens the crash-state workload and the recovery
// property's seed list when the race detector is on.
const raceEnabled = false
