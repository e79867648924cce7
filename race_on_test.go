//go:build race

package graphflow

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a quarter of what is put into it, so ceilings on what a pooled re-run
// allocates do not hold.
const raceEnabled = true
