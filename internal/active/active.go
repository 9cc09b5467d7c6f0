// Package active is an event–condition–action (ECA) rule engine in
// the style of active databases and OPS5-like production systems —
// the settings the paper names as early adopters of forward-chaining
// semantics (Sections 6 and 7; [38, 117] in the paper).
//
// A rule fires when a triggering event occurs (a fact inserted into
// or deleted from a relation), its condition holds in the current
// working memory, and conflict resolution selects it. Actions insert
// or delete facts, which in turn raise new events. Conflict
// resolution is OPS5-flavoured: highest priority first, then most
// recent event (recency), then rule order.
package active

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"unchained/internal/ast"
	"unchained/internal/engine"
	"unchained/internal/eval"
	"unchained/internal/stats"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// ErrFiringLimit reports a cascade exceeding Options.MaxFirings.
var ErrFiringLimit = errors.New("active: firing limit exceeded")

// EventKind distinguishes insertion and deletion events.
type EventKind uint8

// The event kinds.
const (
	Inserted EventKind = iota
	Deleted
)

func (k EventKind) String() string {
	if k == Deleted {
		return "deleted"
	}
	return "inserted"
}

// Event is a change to the working memory.
type Event struct {
	Kind  EventKind
	Pred  string
	Tuple tuple.Tuple
	// seq is the recency stamp assigned by the engine.
	seq int
}

// Rule is an ECA rule. The triggering event binds EventVars to the
// changed tuple; Cond is a conjunction of (possibly negated) literals
// over those and further variables; Actions are atoms to insert
// (positive) or delete (negated).
type Rule struct {
	Name     string
	Priority int
	On       EventKind
	Pred     string   // triggering relation
	Vars     []string // variables bound to the event tuple, one per column
	Cond     []ast.Literal
	Actions  []ast.Literal
}

// eventRelPrefix prefixes the reserved per-arity relations the
// engine uses to bind the triggering tuple during condition matching
// (one per event arity, e.g. __event2 for binary triggers).
const eventRelPrefix = "__event"

func eventRel(arity int) string { return fmt.Sprintf("%s%d", eventRelPrefix, arity) }

// compiledRule pairs a rule with its compiled matcher.
type compiledRule struct {
	src Rule
	cr  *eval.Rule
}

// System is a set of ECA rules ready to process update streams.
type System struct {
	rules []compiledRule
	u     *value.Universe
	// readsDomain: a rule reads the active domain (eval.ReadsDomain).
	readsDomain bool
}

// Options tunes Run; the zero value is the default configuration.
// The active engine keeps its own options type (its Trace hook
// observes firings, not instance stages) but runs on the engine
// package's stage-loop driver: Ctx is polled between firings and Run
// stops with the typed engine error.
type Options struct {
	// Ctx, if non-nil, bounds the cascade: it is polled between
	// firings and Run returns engine.ErrCanceled/ErrDeadline with the
	// partial working memory when it is done.
	Ctx context.Context
	// MaxFirings bounds the total number of rule firings per Run
	// (default 1<<16): ECA cascades can loop forever.
	MaxFirings int
	// LiteralOrder disables the cardinality-driven query planner for
	// condition matching (seed literal-order schedules), mirroring
	// engine.Options.LiteralOrder.
	LiteralOrder bool
	// Plans, if non-nil, shares planner-chosen condition schedules
	// across Run calls on the same system.
	Plans *eval.PlanCache
	// Specificity inserts OPS5-style specificity between priority and
	// recency in conflict resolution: among equal-priority
	// instantiations, the rule with more condition literals wins.
	Specificity bool
	// Trace, if non-nil, observes every firing.
	Trace func(rule string, ev Event)
	// Stats, if non-nil, collects evaluation statistics: each selected
	// firing counts as one stage, with per-rule attribution by rule
	// name. A nil collector adds no work.
	Stats *stats.Collector
}

func (o *Options) maxFirings() int {
	if o == nil || o.MaxFirings <= 0 {
		return 1 << 16
	}
	return o.MaxFirings
}

// shared maps the cascade's options onto the shared engine layer,
// which supplies the stage-loop driver and the matcher environment.
func (o *Options) shared() *engine.Options {
	if o == nil {
		return nil
	}
	return &engine.Options{Ctx: o.Ctx, LiteralOrder: o.LiteralOrder, Plans: o.Plans, Stats: o.Stats}
}

// NewSystem validates and compiles the rules.
func NewSystem(u *value.Universe, rules []Rule) (*System, error) {
	s := &System{u: u}
	for i, r := range rules {
		if r.Pred == "" {
			return nil, fmt.Errorf("active: rule %d (%s): empty trigger relation", i, r.Name)
		}
		if len(r.Actions) == 0 {
			return nil, fmt.Errorf("active: rule %d (%s): no actions", i, r.Name)
		}
		for _, a := range r.Actions {
			if a.Kind != ast.LitAtom {
				return nil, fmt.Errorf("active: rule %d (%s): actions must be atoms", i, r.Name)
			}
		}
		// Build a Datalog¬¬-shaped rule: head = actions, body =
		// __event(vars...) followed by the condition.
		evArgs := make([]ast.Term, len(r.Vars))
		for j, v := range r.Vars {
			evArgs[j] = ast.V(v)
		}
		body := append([]ast.Literal{ast.PosLit(ast.NewAtom(eventRel(len(r.Vars)), evArgs...))}, r.Cond...)
		rule := ast.Rule{Head: r.Actions, Body: body}
		prog := ast.NewProgram(rule)
		if err := prog.Validate(ast.DialectNDatalogNegNeg); err != nil {
			return nil, fmt.Errorf("active: rule %d (%s): %w", i, r.Name, err)
		}
		cr, err := eval.Compile(rule)
		if err != nil {
			return nil, fmt.Errorf("active: rule %d (%s): %w", i, r.Name, err)
		}
		s.rules = append(s.rules, compiledRule{src: r, cr: cr})
		s.readsDomain = s.readsDomain || eval.ReadsDomain([]*eval.Rule{cr})
	}
	return s, nil
}

// Result reports the outcome of processing an update stream.
type Result struct {
	// Out is the final working memory.
	Out *tuple.Instance
	// Firings is the total number of rule firings.
	Firings int
	// Stats is the evaluation summary when Options carried a
	// collector; nil otherwise. Stats.Stages equals Firings.
	Stats *stats.Summary
}

// Run applies the external updates to a copy of the working memory
// and processes the resulting event cascade to quiescence.
func (s *System) Run(in *tuple.Instance, updates []Event, opt *Options) (*Result, error) {
	eo := opt.shared()
	col := eo.Collector()
	if col.Enabled() {
		col.Reset("active", len(s.rules), func(i int) string {
			if name := s.rules[i].src.Name; name != "" {
				return name
			}
			return fmt.Sprintf("rule %d", i)
		})
	}
	wm := in.SnapshotWith(col.Cow())
	var agenda []Event
	seq := 0
	push := func(ev Event) {
		ev.seq = seq
		seq++
		agenda = append(agenda, ev)
	}
	apply := func(ev Event) bool {
		if ev.Kind == Inserted {
			return wm.Insert(ev.Pred, ev.Tuple)
		}
		return wm.Delete(ev.Pred, ev.Tuple)
	}
	for _, ev := range updates {
		if apply(ev) {
			push(ev)
		}
	}

	type firing struct {
		ri      int
		evIndex int
		facts   []eval.Fact
		key     string
	}
	better := func(a, b *firing) bool {
		pa, pb := s.rules[a.ri].src.Priority, s.rules[b.ri].src.Priority
		if pa != pb {
			return pa > pb
		}
		if opt != nil && opt.Specificity {
			sa, sb := len(s.rules[a.ri].src.Cond), len(s.rules[b.ri].src.Cond)
			if sa != sb {
				return sa > sb
			}
		}
		ea, eb := agenda[a.evIndex].seq, agenda[b.evIndex].seq
		if ea != eb {
			return ea > eb // recency
		}
		if a.ri != b.ri {
			return a.ri < b.ri
		}
		return a.key < b.key
	}
	// Refraction (OPS5): an instantiation (rule, event, bound
	// actions) fires at most once.
	fired := map[string]bool{}
	adomc := eval.NewAdomCache(s.u, nil, s.readsDomain)
	var best *firing
	// Conflict resolution: among unfired instantiations whose
	// condition currently holds, pick by priority, then event
	// recency, then rule order. No pick means quiescence.
	resolve := func() bool {
		best = nil
		for evIndex := len(agenda) - 1; evIndex >= 0; evIndex-- {
			ev := agenda[evIndex]
			// Bind the event by planting its tuple in the reserved
			// __event relation once per event (not once per rule, as
			// the engine used to), so the active-domain re-sort and
			// the ctx are shared by every rule the event can trigger.
			planted := false
			var ctx *eval.Ctx
			for ri, r := range s.rules {
				if r.src.Pred != ev.Pred || r.src.On != ev.Kind || len(r.src.Vars) != len(ev.Tuple) {
					continue
				}
				if !planted {
					wm.Ensure(eventRel(len(ev.Tuple)), len(ev.Tuple)).Insert(ev.Tuple)
					planted = true
					ctx = eo.EvalCtx(col, wm, adomc.Domain(wm))
				}
				r.cr.Enumerate(ctx, func(b eval.Binding) bool {
					facts := r.cr.HeadFacts(b, nil)
					key := fmt.Sprintf("%d|%d|", ri, ev.seq)
					for _, f := range facts {
						if f.Neg {
							key += "!"
						}
						key += f.Pred + "(" + f.Tuple.Key() + ")"
					}
					if fired[key] {
						return true
					}
					f := firing{ri: ri, evIndex: evIndex, facts: facts, key: key}
					if best == nil || better(&f, best) {
						best = &f
					}
					return true
				})
			}
			if planted {
				wm.Relation(eventRel(len(ev.Tuple))).Delete(ev.Tuple)
			}
		}
		return best != nil
	}
	// The cascade may run MaxFirings firings; the one after that is the
	// error.
	firings, err := eo.ChooseLoop(col, opt.maxFirings()+1,
		func(firings int) error { return fmt.Errorf("%w (%d)", ErrFiringLimit, firings) },
		resolve,
		func(int) (engine.Outcome, error) {
			fired[best.key] = true
			if opt != nil && opt.Trace != nil {
				opt.Trace(s.rules[best.ri].src.Name, agenda[best.evIndex])
			}
			inserted, deleted, noop := 0, 0, 0
			for _, f := range best.facts {
				kind := Inserted
				if f.Neg {
					kind = Deleted
				}
				nev := Event{Kind: kind, Pred: f.Pred, Tuple: f.Tuple}
				if apply(nev) {
					push(nev)
					if f.Neg {
						deleted++
					} else {
						inserted++
					}
				} else {
					noop++
				}
			}
			col.Fired(best.ri, 1, uint64(inserted), uint64(noop))
			col.Retracted(deleted)
			return engine.Outcome{Delta: inserted - deleted}, nil
		})
	if err != nil && !engine.IsInterrupt(err) {
		return nil, err
	}
	// Drop the reserved matching relations from the result.
	wm = wm.Restrict(withoutEvent(wm.Names()), nil)
	return &Result{Out: wm, Firings: firings, Stats: col.Summary()}, err
}

// withoutEvent filters the reserved relation names from a name list.
func withoutEvent(names []string) []string {
	out := names[:0:0]
	for _, n := range names {
		if !strings.HasPrefix(n, eventRelPrefix) {
			out = append(out, n)
		}
	}
	return out
}

// Insert is a convenience constructor for insertion events.
func Insert(pred string, t tuple.Tuple) Event {
	return Event{Kind: Inserted, Pred: pred, Tuple: t}
}

// Delete is a convenience constructor for deletion events.
func Delete(pred string, t tuple.Tuple) Event {
	return Event{Kind: Deleted, Pred: pred, Tuple: t}
}
