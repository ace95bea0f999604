//go:build race

package walcrash

// raceEnabled shortens the crash-state workload and the recovery
// property's seed list when the race detector is on (it makes every
// file operation several times slower).
const raceEnabled = true
