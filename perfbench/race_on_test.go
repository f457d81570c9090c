//go:build race

package main

// The race detector's runtime hides callers from CPU profile samples.
const raceEnabled = true
