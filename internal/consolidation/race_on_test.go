//go:build race

package consolidation

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
