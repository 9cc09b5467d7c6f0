//go:build !race

package incr

const raceEnabled = false
