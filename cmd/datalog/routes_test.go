package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"unchained"
	"unchained/internal/core"
	"unchained/internal/serve"
	"unchained/programs"
)

var stagesHeader = regexp.MustCompile(`(?m)^% fixpoint after (\d+) stages`)

// TestRoutesAgree: there is one way from a program to its answer, and
// the three callers of it agree. Every corpus program under every
// deterministic semantics and auto, at -O0 and -O2, through (a) the
// CLI's run, (b) Session.EvalContext + core.Answer + Format and (c)
// POST /v1/eval: the same answer bytes, the same engine (so auto
// resolves alike), the same stage count where the route reports one —
// or, where the semantics does not admit the program, the same error.
func TestRoutesAgree(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.Config{}))
	defer ts.Close()
	dir := t.TempDir()

	for _, c := range programs.Cases {
		name, path := c.Program, filepath.Join("../../programs", c.Program)
		src := programs.Source(name)
		// One facts text for all three routes, the order relations
		// rendered into it (the daemon has no -order).
		facts := programs.Facts(c.Facts)
		if c.Order {
			s := unchained.NewSession()
			facts = s.Format(s.WithOrder(s.MustFacts(facts)))
		}
		factsPath := write(t, dir, name+".facts", facts)

		for _, semName := range unchained.SemanticsNames() {
			if name == "counter.dl" && (semName == "noninflationary" || semName == "auto") {
				continue // 2^30 stages, and the CLI has no stage bound
			}
			for _, level := range []int{0, 2} {
				t.Run(fmt.Sprintf("%s/%s/O%d", name, semName, level), func(t *testing.T) {
					// (b) the facade.
					s := unchained.NewSession()
					p, err := s.Parse(src)
					if err != nil {
						t.Fatal(err)
					}
					in := s.MustFacts(facts)
					res, ferr := s.EvalContext(context.Background(), p, in, unchained.SemanticsByName[semName],
						unchained.WithStats(unchained.NewStatsCollector()), unchained.WithOptimize(unchained.OptLevel(level)))

					// (c) the daemon.
					body, _ := json.Marshal(serve.EvalRequest{
						Envelope:  serve.Envelope{Program: src, Facts: facts, Optimize: level, Stats: true},
						Semantics: semName,
					})
					hres, err := http.Post(ts.URL+"/v1/eval", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Fatal(err)
					}
					var dres serve.EvalResponse
					err = json.NewDecoder(hres.Body).Decode(&dres)
					hres.Body.Close()
					if err != nil {
						t.Fatal(err)
					}
					if dres.Semantics != semName {
						t.Errorf("daemon names the request %q, want %q", dres.Semantics, semName)
					}

					// (a) the CLI. Under auto it goes on to the
					// nondeterministic engines the other two refuse.
					cliOut, cliErrOut, cerr := runCLIStats(t, "-program", path, "-facts", factsPath,
						"-semantics", semName, "-O", strconv.Itoa(level), "-stats")
					cli := semName != "auto" || s.Analyze(p).Deterministic

					if ferr != nil {
						if dres.OK || dres.Error == nil || dres.Error.Message != ferr.Error() {
							t.Errorf("facade fails, daemon differs:\nfacade: %v\ndaemon: %+v", ferr, dres.Error)
						}
						if cli && (cerr == nil || cerr.Error() != strings.TrimPrefix(ferr.Error(), "unchained: ")) {
							t.Errorf("facade fails, CLI differs:\nfacade: %v\nCLI:    %v", ferr, cerr)
						}
						return
					}
					if !dres.OK {
						t.Fatalf("facade succeeds, daemon fails: %+v", dres.Error)
					}
					if cerr != nil {
						t.Fatalf("facade succeeds, CLI fails: %v", cerr)
					}
					if full := s.Format(res.Out); dres.Output != full {
						t.Errorf("daemon output differs:\n--- daemon ---\n%s--- facade ---\n%s", dres.Output, full)
					}
					if dres.Stages != res.Stages || dres.Stats.Engine != res.Stats.Engine {
						t.Errorf("daemon ran %s for %d stages, facade %s for %d",
							dres.Stats.Engine, dres.Stages, res.Stats.Engine, res.Stages)
					}

					var answer []string
					for _, line := range strings.SplitAfter(cliOut, "\n") {
						if !strings.HasPrefix(line, "% ") {
							answer = append(answer, line)
						}
					}
					if got, want := strings.Join(answer, ""), s.Format(core.Answer(p, res.Out)); got != want {
						t.Errorf("CLI answer differs:\n--- CLI ---\n%s--- facade ---\n%s", got, want)
					}
					if m := stagesHeader.FindStringSubmatch(cliOut); m != nil && m[1] != strconv.Itoa(res.Stages) {
						t.Errorf("CLI reports %s stages, facade %d", m[1], res.Stages)
					}
					var sum unchained.StatsSummary
					if err := json.Unmarshal([]byte(cliErrOut), &sum); err != nil {
						t.Fatalf("-stats: %v: %q", err, cliErrOut)
					}
					if sum.Engine != res.Stats.Engine {
						t.Errorf("CLI ran %s, facade %s", sum.Engine, res.Stats.Engine)
					}
				})
			}
		}
	}
}
