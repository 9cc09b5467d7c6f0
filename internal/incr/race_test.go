//go:build race

package incr

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a quarter of what it is given.
const raceEnabled = true
