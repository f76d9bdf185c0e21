//go:build race

package hmm_test

// raceEnabled thins the served-graph oracle sweep under the race
// detector, which slows its allocation-heavy oracles about tenfold.
const raceEnabled = true
