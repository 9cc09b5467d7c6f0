// Command bench is the repository's benchmark: five workloads, the
// end-to-end metrics a user of the system sees measured with tracing
// off, and a separate traced run per workload that gives each layer's
// numbers. BENCHMARK.json at the repository root is its manifest; see
// README.md beside this file.
//
// With -workload it makes one run and prints one JSON object as the
// last line of standard output (the driver's contract). Without, it
// runs every workload untraced and traced, prints every metric by name
// with its unit, and writes bench/out/results.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload and print the driver's one-line JSON result")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", runSeconds, "how long each run measures")
		traced   = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 makes the traced per-layer run")
		repeat   = flag.Int("repeat", 1, "run the whole untraced set this many times (seed, seed+1, ...) and print each metric's spread")
		check    = flag.Bool("check", false, "with -repeat: exit non-zero if the medians of the first and second half of the sets disagree by more than a metric's bound")
		update   = flag.Bool("update-golden", false, "rewrite bench/golden/*.sha256 from this run's outputs")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as this program declares it and exit")
	)
	flag.Parse()
	if *manifest {
		os.Stdout.Write(manifestJSON())
		return
	}
	if err := run(*workload, *seed, *seconds, *traced, *repeat, *check, *update); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced, repeat int, check, update bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if seconds <= 0 || repeat < 1 || traced < 0 || traced > 1 {
		return fmt.Errorf("-seconds must be positive, -repeat at least 1, -trace 0 or 1")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	e := &env{
		root:   root,
		outDir: filepath.Join(root, "bench", "out"),
		golden: golden{dir: filepath.Join(root, "bench", "golden"), update: update},
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	d := time.Duration(seconds * float64(time.Second))
	if workload != "" {
		return driverRun(e, workload, seed, d, traced == 1)
	}
	return fullRun(e, seed, d, repeat, check)
}

// findRoot walks up from the working directory to the directory that
// holds the module "unchained": the checkout the benchmark measures.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module unchained\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside a checkout of the unchained module")
		}
		dir = parent
	}
}

// driverRun makes one run and prints the one-line result.
func driverRun(e *env, name string, seed int64, d time.Duration, traced bool) error {
	var (
		r       *result
		err     error
		metrics = map[string]map[string]any{}
	)
	if traced {
		if r, err = runTraced(e, name, seed, d); err != nil {
			return err
		}
		for _, lm := range perLayer {
			metrics[lm.Name] = map[string]any{"value": r.Metrics[lm.Name], "unit": lm.Unit}
		}
	} else {
		if r, err = runUntraced(e, name, seed, d); err != nil {
			return err
		}
		for _, em := range endToEnd {
			if em.Driver {
				metrics[em.Name] = map[string]any{"value": r.Metrics[em.Name], "unit": em.Unit}
			}
		}
	}
	printResult(os.Stderr, r)
	line, err := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printResult(w io.Writer, r *result) {
	kind := "end-to-end, tracing off"
	if r.Traced {
		kind = "per-layer, traced run"
	}
	fmt.Fprintf(w, "%s  seed %d  %s  %.1f s  %d ops  %d failed\n", r.Workload, r.Seed, kind, r.Seconds, r.Attempted, r.Failed)
	if r.Traced {
		for _, lm := range perLayer {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", lm.Name, r.Metrics[lm.Name], lm.Unit)
		}
		fmt.Fprintf(w, "  spans: %s\n", r.Trace)
		return
	}
	for _, em := range endToEnd {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", em.Name, r.Metrics[em.Name], em.Unit)
	}
}

// fullRun runs every workload: repeat untraced sets, then one traced
// run per workload, and writes bench/out/results.json.
func fullRun(e *env, seed int64, d time.Duration, repeat int, check bool) error {
	host := fingerprint()
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n", host.CPU, host.NProc, host.GoMaxProcs, host.GoVersion, host.Commit)
	var all []*result
	sets := make([]map[string]*result, repeat)
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, wl := range workloads {
			r, err := runUntraced(e, wl.Name, seed+int64(i), d)
			if err != nil {
				return err
			}
			printResult(os.Stdout, r)
			sets[i][wl.Name] = r
			all = append(all, r)
		}
	}
	for _, wl := range workloads {
		r, err := runTraced(e, wl.Name, seed, d)
		if err != nil {
			return err
		}
		printResult(os.Stdout, r)
		all = append(all, r)
	}

	failed := 0
	for _, r := range all {
		failed += r.Failed
	}
	disagree := 0
	spreads := map[string]map[string]float64{}
	if repeat > 1 {
		// The driver accepts the benchmark if the median of a second
		// batch of runs is not worse than the median of a first batch by
		// more than the bound, and if the spread (quartile distance over
		// median) of a batch stays within it. -check does the first with
		// the two halves of the sets, in both directions.
		fmt.Printf("%d sets: gap between the medians of the two halves, spread (Q3-Q1)/median of all, bound\n", repeat)
		for _, wl := range workloads {
			spreads[wl.Name] = map[string]float64{}
			for _, em := range endToEnd {
				var v []float64
				for _, set := range sets {
					v = append(v, set[wl.Name].Metrics[em.Name])
				}
				first, second := median(v[:repeat/2]), median(v[repeat/2:])
				gap := max(worse(em.Better, first, second), worse(em.Better, second, first))
				spreads[wl.Name][em.Name] = spread(v)
				mark := ""
				if gap > em.Bound {
					mark = "  DISAGREE"
					disagree++
				}
				fmt.Printf("  %-16s %-18s %8.4f %8.4f  (%.2f)%s\n", wl.Name, em.Name, gap, spread(v), em.Bound, mark)
			}
		}
	}

	summary := struct {
		Host     hostInfo                      `json:"host"`
		Unix     int64                         `json:"unix_time"`
		Seconds  float64                       `json:"seconds"`
		Results  []*result                     `json:"results"`
		Units    map[string]string             `json:"units"`
		Spreads  map[string]map[string]float64 `json:"spreads,omitempty"`
		FailedOp int                           `json:"failed_ops"`
		Claim    *string                       `json:"claim"`
	}{Host: host, Unix: time.Now().Unix(), Seconds: d.Seconds(), Results: all, Units: units(), Spreads: spreads, FailedOp: failed}
	b, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(e.outDir, "results.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("results: %s\n", path)
	short, _ := json.Marshal(map[string]any{"workloads": len(workloads), "runs": len(all), "failed_ops": failed, "disagreements": disagree})
	fmt.Printf("%s\n", strings.TrimSuffix(string(short), "}")+`,"claim":null}`)
	switch {
	case failed > 0:
		return fmt.Errorf("%d ops failed", failed)
	case check && disagree > 0:
		return fmt.Errorf("%d metrics disagree between sets by more than their bound", disagree)
	}
	return nil
}

func units() map[string]string {
	out := map[string]string{}
	for _, em := range endToEnd {
		out[em.Name] = em.Unit
	}
	for _, lm := range perLayer {
		out[lm.Name] = lm.Unit
	}
	return out
}

// hostInfo is the fingerprint recorded with every result set, so that
// numbers from different boxes are not compared by accident.
type hostInfo struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func fingerprint() hostInfo {
	h := hostInfo{CPU: "unknown", NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// manifestJSON renders BENCHMARK.json from the tables in metrics.go,
// so the manifest and the program cannot drift apart (a test compares
// them).
func manifestJSON() []byte {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	m := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadInfo `json:"workloads"`
		EndToEnd   []metric       `json:"end_to_end"`
		PerLayer   []metric       `json:"per_layer"`
	}{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds, Workloads: workloads,
	}
	for _, em := range endToEnd {
		if em.Driver {
			bound := em.Bound
			m.EndToEnd = append(m.EndToEnd, metric{em.Name, em.Unit, em.Better, &bound})
		}
	}
	for _, lm := range perLayer {
		m.PerLayer = append(m.PerLayer, metric{lm.Name, lm.Unit, lm.Better, nil})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// runSeconds is the run length the manifest asks the driver for, and
// the default of -seconds: as long as the driver's cap on all its runs
// together allows with five workloads, since op_ms_best gets steadier
// the more repetitions of each piece a run holds.
const runSeconds = 22
