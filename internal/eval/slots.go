// Predicate slots. The rules compiled together (CompileProgram, or one
// Compile) share a numbering of the predicates they name, and every
// literal, head and ∀ check carries its predicate's number. An
// evaluation context resolves the numbers to the relations its
// instances hold in a slot table — one name lookup per predicate, and
// only when an instance changed which relation a name denotes — and a
// firing indexes the table. The same table holds the schedule each rule
// runs (its plan pick). At the start of a stage the table reads the size
// decade of every relation; only when one changed does a rule's next
// enumeration compute its planner signature, and only when that changed
// does it choose a schedule again.
package eval

import (
	"hash/maphash"
	"sync/atomic"

	"unchained/internal/tuple"
)

// program is the predicate numbering of rules compiled together.
type program struct {
	preds []string // predicate names, by id
	// cursors bounds the match steps of a schedule of any of the rules.
	cursors int
	// planned counts the plan pick ids handed out (Rule.id).
	planned atomic.Int64
}

// namer numbers predicate names in order of first occurrence. Past a
// few names its index is open addressing over hashes of the names,
// holding id+1 (0: empty slot) in a power-of-two table at most half
// full: numbering a program allocates no map.
type namer struct {
	p     *program
	index []int32
}

var nameSeed = maphash.MakeSeed()

// linearNames is the number of atoms up to which a namer finds a name
// by comparing it with every name numbered so far, and keeps no index.
const linearNames = 16

// newNamer returns a namer that numbers into preds the names of at most
// atoms atoms.
func newNamer(preds []string, atoms int) namer {
	nm := namer{p: &program{preds: preds}}
	if atoms > linearNames {
		size := 8
		for size < 2*atoms {
			size *= 2
		}
		nm.index = make([]int32, size)
	}
	return nm
}

// id returns the number of name, numbering it if it is new.
func (nm *namer) id(name string) int {
	if nm.index == nil {
		for i, p := range nm.p.preds {
			if p == name {
				return i
			}
		}
		nm.p.preds = append(nm.p.preds, name)
		return len(nm.p.preds) - 1
	}
	mask := uint64(len(nm.index) - 1)
	for h := maphash.String(nameSeed, name) & mask; ; h = (h + 1) & mask {
		switch s := nm.index[h]; {
		case s == 0:
			nm.p.preds = append(nm.p.preds, name)
			nm.index[h] = int32(len(nm.p.preds))
			return len(nm.p.preds) - 1
		case nm.p.preds[s-1] == name:
			return int(s - 1)
		}
	}
}

// slotTable is what an evaluation context resolved for the rules of one
// program: the relation each predicate id denotes in In, NegIn and Delta,
// and the schedule each rule enumerates with.
type slotTable struct {
	prog *program
	// The instances the sections were filled from, with their NameGen
	// then: a section is filled again when either changes.
	srcIn, srcNeg, srcDelta *tuple.Instance
	genIn, genNeg, genDelta uint64
	// rels holds In's, NegIn's and Delta's relations by predicate id
	// (nil: none), one section each (see section).
	rels []*tuple.Relation
	// decs holds the size decade (see decade) of every relation of the In
	// and Delta sections as the stage began, read by the stage's first
	// plan: the planner's signatures (Rule.planSig) read nothing else.
	decs []uint8
	// stage numbers the stages the table has seen (Ctx.NewStage, and
	// every fill), plans the stages at which a decade in decs changed. A
	// pick made before the last change of plans is stale; one made in an
	// earlier stage reports its plan afresh.
	stage, plans uint64
	dirty        bool   // a stage began that sync has not counted
	stale        bool   // decs was not read in this stage
	picks        []pick // by rule id
	// counts is the per-step tally of the enumeration that reports its
	// plan (frame.counts), kept from one report to the next.
	counts []int64
}

// pick is what a context remembers of the schedules of one planned rule:
// the planner's, for one delta pin of the context, and the literal-order
// one of a delta variant (see literal). It references no instance.
type pick struct {
	plans   uint64 // slotTable.plans when sig was computed
	stage   uint64 // the stage of the last enumeration (0: report afresh)
	sig     uint64 // the planner signature steps was chosen for
	steps   []step
	literal []step // the variant's literal-order schedule, once built
	// emitted is the key of the plan last reported (Rule.planKey), body
	// the rule's PlanCache hash (0 until a PlanCache asks).
	emitted, body uint64
	lit           int32 // ctx.DeltaLit when sig was computed
}

// The sections of a slot table.
const (
	secIn = iota
	secNeg
	secDelta
)

// section returns the relations of section k by predicate id.
func (t *slotTable) section(k int) []*tuple.Relation {
	n := len(t.prog.preds)
	return t.rels[k*n : (k+1)*n : (k+1)*n]
}

// scratch returns ctx's Buf, which a context without one gets at its
// first enumeration.
func (ctx *Ctx) scratch() *Scratch {
	if ctx.Buf == nil {
		ctx.Buf = new(Scratch)
	}
	return ctx.Buf
}

// table returns the slot table of ctx's Buf.
func (ctx *Ctx) table() *slotTable { return &ctx.scratch().tab }

// NewStage starts a stage under ctx: the next enumeration reads the
// cardinalities of the relations afresh, and a rule whose planner
// signature they change chooses its schedule again. Engines call it
// before each stage, round or wave whose relations grew or shrank since
// the last; a context that no engine stages keeps the schedules of its
// first enumerations, for as long as its instances name the same
// relations.
func (ctx *Ctx) NewStage() { ctx.table().dirty = true }

// Release drops what the scratch holds of the instances its enumerations
// read (the relations of the slot table, the cursors), keeping its
// storage and the rules' plan picks: for an engine whose scratch
// outlives the evaluation, and whose next evaluation of the same rules
// reuses their schedules.
func (s *Scratch) Release() {
	t := &s.tab
	clear(t.rels)
	clear(s.its)
	t.srcIn, t.srcNeg, t.srcDelta = nil, nil, nil
}

// sync brings t up to date with ctx for the rules prog numbers: a
// section whose instance changed, or now names other relations, is
// filled again by one lookup per predicate.
func (t *slotTable) sync(ctx *Ctx, prog *program) {
	if t.prog != prog {
		t.prog, t.rels = prog, grow(t.rels, 3*len(prog.preds))
		clear(t.rels)
		clear(t.picks)
		t.srcIn, t.srcNeg, t.srcDelta = nil, nil, nil
		t.genIn, t.genNeg, t.genDelta = 0, 0, 0
		t.plans++
		t.dirty = true
	}
	if in := ctx.In; in != t.srcIn || in.NameGen() != t.genIn {
		t.srcIn, t.genIn = in, in.NameGen()
		t.fill(secIn, in)
	}
	if neg := ctx.NegIn; neg != nil && (neg != t.srcNeg || neg.NameGen() != t.genNeg) {
		t.srcNeg, t.genNeg = neg, neg.NameGen()
		t.fill(secNeg, neg)
	}
	if d := ctx.Delta; d != nil && (d != t.srcDelta || d.NameGen() != t.genDelta) {
		t.srcDelta, t.genDelta = d, d.NameGen()
		t.fill(secDelta, d)
	}
	if t.dirty {
		t.dirty, t.stale = false, true
		t.stage++
	}
}

// fill resolves every predicate of the table's program in in (nil: no
// relations) into section k, and starts a new stage.
func (t *slotTable) fill(k int, in *tuple.Instance) {
	sec := t.section(k)
	for id, name := range t.prog.preds {
		if in == nil {
			sec[id] = nil
		} else {
			sec[id] = in.Relation(name)
		}
	}
	t.dirty = true
}

// redecade reads the decades of the In section's relations, and of the
// Delta section's when ctx has a Delta, into decs, and reports whether
// one changed.
func (t *slotTable) redecade(ctx *Ctx) bool {
	n, changed := len(t.prog.preds), false
	t.decs = grow(t.decs, 2*n)
	for i, k := range [2]int{secIn, secDelta} {
		if k == secDelta && ctx.Delta == nil {
			continue
		}
		decs := t.decs[i*n : (i+1)*n]
		for id, rel := range t.section(k) {
			d := uint8(0)
			if rel != nil {
				d = uint8(decade(rel.Len()))
			}
			if decs[id] != d {
				decs[id], changed = d, true
			}
		}
	}
	return changed
}

// size is the cardinality of the relation a match of the atom with body
// index li over predicate id reads under ctx: Delta's for the literal
// ctx pins to a delta relation, In's otherwise.
func (t *slotTable) size(ctx *Ctx, li, id int) int {
	if li == ctx.DeltaLit && ctx.Delta != nil {
		id += secDelta * len(t.prog.preds)
	}
	if rel := t.rels[id]; rel != nil {
		return rel.Len()
	}
	return 0
}

// decade is decade(size(ctx, li, id)) as the stage began: what
// redecade read.
func (t *slotTable) decade(ctx *Ctx, li, id int) uint64 {
	if li == ctx.DeltaLit && ctx.Delta != nil {
		id += len(t.prog.preds)
	}
	return uint64(t.decs[id])
}

// pick returns r's plan pick, making room for every id handed out so
// far, variants included.
func (t *slotTable) pick(r *Rule) *pick {
	if id := int(r.id); id >= len(t.picks) {
		n := max(id+1, int(r.prog.planned.Load()))
		t.picks = append(t.picks, make([]pick, n-len(t.picks))...)
	}
	return &t.picks[r.id]
}

// literal returns the literal-order schedule of a planned rule: the
// compiled rule's own, or one a delta variant gets here the first time
// a context asks for it.
func (t *slotTable) literal(r *Rule) []step {
	if r.steps != nil {
		return r.steps
	}
	p := t.pick(r)
	if p.literal == nil {
		p.literal = r.schedule(int(r.deltaLit), nil, nil)
	}
	return p.literal
}

// plan returns the planner's schedule of r under ctx, and whether this
// enumeration reports it: the first of the stage does when
// Stats.PlanWanted holds and the plan differs from the one last
// reported. After a decade changed, the pick's signature is computed
// again, and only a new signature chooses a schedule again: the rule
// schedules it (Rule.schedule), or takes it from ctx.Plans.
func (t *slotTable) plan(ctx *Ctx, r *Rule) ([]step, bool) {
	if t.stale {
		t.stale = false
		if t.redecade(ctx) {
			t.plans++
		}
	}
	p := t.pick(r)
	if p.plans != t.plans || int(p.lit) != ctx.DeltaLit {
		sig := r.planSig(ctx, t)
		if p.steps == nil || p.sig != sig || int(p.lit) != ctx.DeltaLit {
			p.sig, p.steps = sig, r.planFor(ctx, t, p)
		}
		p.plans, p.lit, p.stage = t.plans, int32(ctx.DeltaLit), 0
	}
	report := false
	if p.stage != t.stage && ctx.Stats.PlanWanted() {
		key := r.planKey(ctx, t, p.steps)
		report, p.emitted = key != p.emitted, key
	}
	p.stage = t.stage
	return p.steps, report
}
