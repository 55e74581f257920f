//go:build race

package serve

// raceEnabled reports a -race build, in which sync.Pool drops a random
// share of the items put back.
const raceEnabled = true
