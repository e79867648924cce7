//go:build !race

package graphflow

const raceEnabled = false
