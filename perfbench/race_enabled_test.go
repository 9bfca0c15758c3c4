//go:build race

package main

// raceEnabled reports whether the race detector is compiled in. The
// detector slows the rack several-fold, too much for a window to collect
// the 10,000 samples a p99.9 needs.
const raceEnabled = true
