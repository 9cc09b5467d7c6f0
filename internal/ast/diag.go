// Positioned, severity-tagged diagnostics: the shared vocabulary of
// Program.Validate and the internal/analyze program analyzer. A
// Diagnostic pins a finding to a source position (threaded from the
// lexer through the parser into the AST), carries a stable code for
// machine consumers (-lint -json, /v1/analyze), and may reference
// related positions (the witness occurrences that justify it).
package ast

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Pos is a 1-based source position. The zero value means "unknown"
// (hand-built AST nodes), so every position-carrying field is
// backward compatible with programs constructed in code.
type Pos struct {
	Line int `json:"line"`
	Col  int `json:"col"`
}

// IsValid reports whether the position was actually set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// String renders "line:col", or "-" for the unknown position.
func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	return strconv.Itoa(p.Line) + ":" + strconv.Itoa(p.Col)
}

// Before reports source order (unknown positions sort last).
func (p Pos) Before(o Pos) bool {
	if p.IsValid() != o.IsValid() {
		return p.IsValid()
	}
	if p.Line != o.Line {
		return p.Line < o.Line
	}
	return p.Col < o.Col
}

// Severity grades a diagnostic.
type Severity uint8

// The severities, from least to most severe.
const (
	// SevInfo is an observation (inferred dialect, unused predicate).
	SevInfo Severity = iota
	// SevWarn flags a program that is legal but suspicious (possible
	// non-termination, underivable predicate).
	SevWarn
	// SevError flags a program no engine should run (arity conflict,
	// unsafe variable, no admitting dialect).
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	case SevError:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", uint8(s))
	}
}

// MarshalText renders the severity for JSON consumers.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a severity by name, so JSON reports
// round-trip.
func (s *Severity) UnmarshalText(b []byte) error {
	switch string(b) {
	case "info":
		*s = SevInfo
	case "warn":
		*s = SevWarn
	case "error":
		*s = SevError
	default:
		return fmt.Errorf("ast: unknown severity %q", b)
	}
	return nil
}

// Related is a secondary position attached to a diagnostic: the
// witness occurrence that justifies the finding (the earlier use that
// fixed a relation's arity, one edge of a negative cycle, ...).
type Related struct {
	Pos     Pos    `json:"pos"`
	Message string `json:"message"`
}

// Diagnostic is one positioned finding about a program.
type Diagnostic struct {
	Pos      Pos       `json:"pos"`
	Severity Severity  `json:"severity"`
	Code     string    `json:"code"`
	Message  string    `json:"message"`
	Related  []Related `json:"related,omitempty"`
}

// Error implements error; Diagnostics.Err joins these, so callers
// that kept the old error shape see every violation at once.
func (d Diagnostic) Error() string {
	if d.Pos.IsValid() {
		return fmt.Sprintf("%s: %s", d.Pos, d.Message)
	}
	return d.Message
}

// String renders "pos: severity code: message" (the -lint line form).
func (d Diagnostic) String() string {
	var b strings.Builder
	if d.Pos.IsValid() {
		b.WriteString(d.Pos.String())
		b.WriteString(": ")
	}
	b.WriteString(d.Severity.String())
	if d.Code != "" {
		b.WriteString(" ")
		b.WriteString(d.Code)
	}
	b.WriteString(": ")
	b.WriteString(d.Message)
	return b.String()
}

// Diagnostics is a list of findings.
type Diagnostics []Diagnostic

// Sort orders diagnostics deterministically: by position, then
// severity (most severe first), then code, then message; diagnostics
// equal on all four keep their order.
func (ds Diagnostics) Sort() {
	// A diagnostic is ten words: sort their indexes, then move each
	// diagnostic once, following the permutation's cycles.
	order := make([]int32, len(ds))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(i, j int32) int { return ds[i].compare(&ds[j]) })
	for k := range order {
		if order[k] < 0 {
			continue
		}
		d, j := ds[k], k
		for {
			next := int(order[j])
			order[j] = -1
			if next == k {
				ds[j] = d
				break
			}
			ds[j], j = ds[next], next
		}
	}
}

func (d *Diagnostic) compare(o *Diagnostic) int {
	if d.Pos != o.Pos {
		if d.Pos.Before(o.Pos) {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(o.Severity, d.Severity); c != 0 {
		return c
	}
	if c := strings.Compare(d.Code, o.Code); c != 0 {
		return c
	}
	return strings.Compare(d.Message, o.Message)
}

// HasErrors reports whether any diagnostic is SevError.
func (ds Diagnostics) HasErrors() bool {
	for _, d := range ds {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}

// Count returns the number of diagnostics at exactly severity s.
func (ds Diagnostics) Count(s Severity) int {
	n := 0
	for _, d := range ds {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// Err joins every error-severity diagnostic into one error (nil when
// there are none), in the deterministic Sort order. This is the
// error shape Program.Validate keeps.
func (ds Diagnostics) Err() error {
	var errs []error
	sorted := append(Diagnostics(nil), ds...)
	sorted.Sort()
	for _, d := range sorted {
		if d.Severity == SevError {
			errs = append(errs, d)
		}
	}
	return errors.Join(errs...)
}
