// Command unchained-bench regenerates every experiment in DESIGN.md /
// EXPERIMENTS.md: the Figure 1 expressiveness hierarchy checks, the
// paper's worked examples (3.2, 4.1, 4.3, 4.4, 5.4/5.5, flip-flop,
// orientation), the ordered-database theorems (4.7, 4.8), the
// nondeterministic semantics (5.3, 5.6, 5.9, 5.11), genericity, and
// the engine ablations.
//
// Usage:
//
//	unchained-bench            # run everything
//	unchained-bench -exp E32   # one experiment
//	unchained-bench -quick     # smaller sizes
//	unchained-bench -list      # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"unchained/internal/gen"
)

// experiment is one reproducible unit.
type experiment struct {
	id    string
	title string
	run   func(q bool) error
}

var experiments = []experiment{
	{"F1a", "Fig.1: Datalog ⊂ stratified Datalog¬ (TC vs CT)", expF1a},
	{"F1b", "Fig.1/Thm 4.2: well-founded ≡ inflationary ≡ fixpoint", expF1b},
	{"F1c", "Fig.1: Datalog¬¬ ≡ while", expF1c},
	{"F1d", "Fig.1/Thm 4.6: Datalog¬new runs Turing machines", expF1d},
	{"E32", "Example 3.2: win game under the well-founded semantics", expE32},
	{"E41", "Example 4.1: closer via inflationary stages", expE41},
	{"E43", "Example 4.3: complement of TC by delayed firing", expE43},
	{"E44", "Example 4.4: good nodes via timestamps", expE44},
	{"E45", "Section 4.2: flip-flop non-termination detection", expE45},
	{"E51", "Section 5: nondeterministic orientation", expE51},
	{"E54", "Examples 5.4/5.5: P − πA(Q) in the N-Datalog family", expE54},
	{"T47", "Theorem 4.7: evenness on ordered databases (db-ptime)", expT47},
	{"T48", "Theorem 4.8: Datalog¬¬ binary counter (db-pspace)", expT48},
	{"T53", "Thm 5.3/5.9/5.11: eff(P), poss and cert semantics", expT53},
	{"T56", "Theorem 5.6: N-Datalog¬⊥ ≡ N-Datalog¬∀", expT56},
	{"T511", "Theorem 5.11: db-np via poss (Hamiltonicity)", expT511},
	{"T57", "Theorem 5.7: N-Datalog¬new (invention + nondeterminism)", expT57},
	{"G1", "Section 4.4: genericity of the deterministic engines", expG1},
	{"P1", "Ablation: naive vs semi-naive evaluation", expP1},
	{"P2", "Ablation: hash-index vs full-scan matching", expP2},
	{"P3", "Stratified vs inflationary complement-of-TC", expP3},
	{"P4", "WFS alternating fixpoint cost vs inflationary", expP4},
	{"P5", "Ablation: magic-sets rewriting vs full evaluation", expP5},
	{"P7", "Ablation: incremental maintenance (DRed) vs recompute", expP7},
	{"P8", "COW fork: Instance.Snapshot vs deep clone (>=100k tuples)", expP8},
	{"P9", "Ablation: cardinality planner vs literal-order joins", expP9},
	{"P10", "Sharded semi-naive evaluation vs serial (large-EDB TC)", expP10},
	{"P12", "Ablation: static optimizer (-O2 inline+dead-elim) vs unoptimized", expP12},
	{"A1", "Sections 6–7: active-database rule cascades", expA1},
}

func main() {
	exp := flag.String("exp", "", "run a single experiment id")
	quick := flag.Bool("quick", false, "smaller workloads")
	list := flag.Bool("list", false, "list experiment ids")
	serveMode := flag.Bool("serve", false, "loadgen mode: boot the daemon in-process and fire a concurrent burst (see -serve-* flags)")
	serveDur := flag.Duration("serve-duration", 15*time.Second, "loadgen burst duration")
	serveClients := flag.Int("serve-clients", 24, "loadgen concurrent clients")
	serveInFlight := flag.Int("serve-inflight", 2, "loadgen daemon max in-flight evaluations")
	serveQueue := flag.Int("serve-queue", 4, "loadgen daemon admission queue depth")
	serveWait := flag.Duration("serve-queue-wait", 500*time.Millisecond, "loadgen daemon queue wait budget")
	serveTenants := flag.Int("serve-tenants", 4, "loadgen distinct tenant programs")
	genWide := flag.Int("gen-wide", 0, "print the front-end stress program (gen.Wide) at about this many rules and exit")
	flag.Parse()

	if *genWide > 0 {
		fmt.Print(gen.Wide(*genWide/4, *genWide-*genWide/4-1))
		return
	}

	if *serveMode {
		err := runLoadgen(os.Stdout, loadgenConfig{
			duration:   *serveDur,
			clients:    *serveClients,
			inFlight:   *serveInFlight,
			queueDepth: *serveQueue,
			queueWait:  *serveWait,
			tenants:    *serveTenants,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return
	}
	ran := 0
	for _, e := range experiments {
		if *exp != "" && *exp != e.id {
			continue
		}
		fmt.Printf("== %s: %s ==\n", e.id, e.title)
		if err := e.run(*quick); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		known := make([]string, 0, len(experiments))
		for _, e := range experiments {
			known = append(known, e.id)
		}
		sort.Strings(known)
		fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %v)\n", *exp, known)
		os.Exit(2)
	}
}
