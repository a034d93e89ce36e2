//go:build race

package exp

// raceEnabled reports a -race build, under which the campaign-sized
// tests are too slow to run alongside the rest of the suite.
const raceEnabled = true
