//go:build race

package core

// raceEnabled reports whether the race detector is active; its
// instrumentation adds allocations, so alloc-count guards skip themselves.
const raceEnabled = true
