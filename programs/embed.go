// Package programs holds the shipped program library, the .dl and .wl
// files of this directory, so that internal/queries and the files the
// CLI reads are one text.
package programs

import "embed"

//go:embed *.dl *.wl
var files embed.FS

// Source returns the text of the named file. A missing name panics:
// callers pass literals.
func Source(name string) string {
	b, err := files.ReadFile(name)
	if err != nil {
		panic(err)
	}
	return string(b)
}
