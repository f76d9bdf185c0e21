//go:build !race

package hmm_test

const raceEnabled = false
