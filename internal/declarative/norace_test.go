//go:build !race

package declarative

const raceEnabled = false
