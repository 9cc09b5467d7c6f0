// Package promlint is a hand-rolled linter for the Prometheus text
// exposition format (version 0.0.4) the daemon emits on /metrics. It
// exists because the repo is dependency-free by policy: the upstream
// linter cannot be imported, but the invariants it would enforce —
// stable HELP/TYPE headers, no duplicate series, valid names, bounded
// label cardinality — are exactly the ones a scrape-driven dashboard
// breaks on silently. TestLiveExpositionClean runs it against a live
// daemon exposition in CI.
package promlint

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Options tunes the linter. The zero value applies the defaults.
type Options struct {
	// MaxSeriesPerFamily bounds how many samples one metric family may
	// carry (label cardinality guard). Default 64: far above the
	// daemon's bounded tenant set and histogram bucket counts, far
	// below a cardinality leak.
	MaxSeriesPerFamily int
}

// DefaultMaxSeriesPerFamily is the label-cardinality bound applied
// when Options.MaxSeriesPerFamily is zero.
const DefaultMaxSeriesPerFamily = 64

// Problem is one lint finding.
type Problem struct {
	// Line is the 1-based line number in the exposition.
	Line int
	// Metric is the family the problem concerns ("" for format-level
	// problems).
	Metric string
	// Msg describes the problem.
	Msg string
}

func (p Problem) String() string {
	if p.Metric == "" {
		return fmt.Sprintf("line %d: %s", p.Line, p.Msg)
	}
	return fmt.Sprintf("line %d: %s: %s", p.Line, p.Metric, p.Msg)
}

// family accumulates what the linter saw of one metric family.
type family struct {
	name      string
	typ       string
	helpLine  int
	typeLine  int
	series    map[string]int // canonical label set -> first line
	nSeries   int
	labelKeys map[string]bool
}

// Lint reads one exposition and returns its problems, in line order.
// A nil/empty return means the exposition is clean.
func Lint(r io.Reader, opts Options) ([]Problem, error) {
	if opts.MaxSeriesPerFamily <= 0 {
		opts.MaxSeriesPerFamily = DefaultMaxSeriesPerFamily
	}
	var probs []Problem
	add := func(line int, metric, format string, args ...any) {
		probs = append(probs, Problem{Line: line, Metric: metric, Msg: fmt.Sprintf(format, args...)})
	}

	fams := map[string]*family{}
	fam := func(name string) *family {
		f := fams[name]
		if f == nil {
			f = &family{name: name, series: map[string]int{}, labelKeys: map[string]bool{}}
			fams[name] = f
		}
		return f
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	ln := 0
	for sc.Scan() {
		ln++
		line := sc.Text()
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# HELP "):
			rest := line[len("# HELP "):]
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				add(ln, name, "HELP line has no help text")
			}
			if !validName(name) {
				add(ln, name, "invalid metric name in HELP")
				continue
			}
			f := fam(name)
			if f.helpLine != 0 {
				add(ln, name, "duplicate HELP (first at line %d)", f.helpLine)
			}
			f.helpLine = ln
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 {
				add(ln, "", "malformed TYPE line %q", line)
				continue
			}
			name, typ := parts[0], parts[1]
			if !validName(name) {
				add(ln, name, "invalid metric name in TYPE")
				continue
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				add(ln, name, "unknown metric type %q", typ)
			}
			f := fam(name)
			if f.typeLine != 0 {
				add(ln, name, "duplicate TYPE (first at line %d)", f.typeLine)
			}
			if f.nSeries > 0 {
				add(ln, name, "TYPE after samples (must precede them)")
			}
			f.typ, f.typeLine = typ, ln
		case strings.HasPrefix(line, "#"):
			// Free-form comment: allowed, ignored.
		default:
			name, labels, ok := parseSample(line)
			if !ok {
				add(ln, "", "malformed sample %q", line)
				continue
			}
			base := familyOf(name, fams)
			f := fams[base]
			if f == nil {
				add(ln, name, "sample without preceding HELP/TYPE")
				f = fam(base)
			}
			for _, kv := range labels {
				if !validLabel(kv.k) {
					add(ln, base, "invalid label name %q", kv.k)
				}
				f.labelKeys[kv.k] = true
			}
			key := canonical(name, labels)
			if first, dup := f.series[key]; dup {
				add(ln, base, "duplicate series %s (first at line %d)", key, first)
			} else {
				f.series[key] = ln
			}
			f.nSeries++
			if f.nSeries == opts.MaxSeriesPerFamily+1 {
				add(ln, base, "family exceeds %d series (label cardinality leak?)", opts.MaxSeriesPerFamily)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return probs, err
	}

	// Family-level checks, reported at the family's first line.
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		at := f.typeLine
		if at == 0 {
			at = f.helpLine
		}
		if f.helpLine == 0 {
			add(at, name, "family has no HELP")
		}
		if f.typeLine == 0 {
			add(at, name, "family has no TYPE")
		}
		if f.typ == "counter" && !strings.HasSuffix(name, "_total") {
			add(at, name, "counter name should end in _total")
		}
		if f.typ == "histogram" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if !hasSeriesWithSuffix(f, name+suffix) {
					add(at, name, "histogram missing %s series", suffix)
				}
			}
			if !hasInfBucket(f, name) {
				add(at, name, "histogram missing +Inf bucket")
			}
		}
	}
	sort.SliceStable(probs, func(i, j int) bool { return probs[i].Line < probs[j].Line })
	return probs, nil
}

type labelKV struct{ k, v string }

// parseSample splits one sample line into its metric name and labels.
// The value/timestamp tail is validated only for presence.
func parseSample(line string) (string, []labelKV, bool) {
	name := line
	rest := ""
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", nil, false
		}
		rest = strings.TrimSpace(line[j+1:])
		var labels []labelKV
		body := line[i+1 : j]
		for body != "" {
			eq := strings.IndexByte(body, '=')
			if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
				return "", nil, false
			}
			k := body[:eq]
			// Scan the quoted value, honoring backslash escapes.
			v, rem, ok := scanQuoted(body[eq+1:])
			if !ok {
				return "", nil, false
			}
			labels = append(labels, labelKV{k: k, v: v})
			body = strings.TrimPrefix(rem, ",")
		}
		if rest == "" {
			return "", nil, false
		}
		return name, labels, validName(name)
	}
	i := strings.IndexByte(line, ' ')
	if i < 0 {
		return "", nil, false
	}
	name, rest = line[:i], strings.TrimSpace(line[i+1:])
	if rest == "" {
		return "", nil, false
	}
	return name, nil, validName(name)
}

// scanQuoted consumes a double-quoted string (leading quote included
// in s) and returns its raw contents and the remainder.
func scanQuoted(s string) (string, string, bool) {
	if s == "" || s[0] != '"' {
		return "", "", false
	}
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return s[1:i], s[i+1:], true
		}
	}
	return "", "", false
}

// canonical renders a series identity: name plus sorted labels.
func canonical(name string, labels []labelKV) string {
	if len(labels) == 0 {
		return name
	}
	kvs := make([]string, len(labels))
	for i, kv := range labels {
		kvs[i] = kv.k + "=" + kv.v
	}
	sort.Strings(kvs)
	return name + "{" + strings.Join(kvs, ",") + "}"
}

// familyOf maps a series name to its family: histogram/summary
// children (_bucket, _sum, _count) fold into the parent when the
// parent family was declared.
func familyOf(name string, fams map[string]*family) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if _, declared := fams[base]; declared {
				return base
			}
		}
	}
	return name
}

func hasSeriesWithSuffix(f *family, series string) bool {
	for key := range f.series {
		if key == series || strings.HasPrefix(key, series+"{") {
			return true
		}
	}
	return false
}

func hasInfBucket(f *family, name string) bool {
	for key := range f.series {
		if strings.HasPrefix(key, name+"_bucket{") && strings.Contains(key, `le=+Inf`) {
			return true
		}
	}
	return false
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabel(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
