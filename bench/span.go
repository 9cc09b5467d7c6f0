package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one call from the benchmark into a layer's public
// function: name, start and end in nanoseconds since the trace began,
// the span that caused it (0 for none) and the op it belongs to (-1
// for work outside the op loop, such as the micro-kernels).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// trace keeps spans in memory until the run ends. The daemon workload
// records from two client goroutines, hence the lock; the library
// workloads never contend on it.
type trace struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTrace() *trace { return &trace{epoch: time.Now()} }

func (t *trace) begin(name string, parent, op int32) int32 {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *trace) end(id int32) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record files a span whose interval was measured elsewhere (the
// daemon's flight records), relative to the trace epoch.
func (t *trace) record(name string, parent, op int32, start time.Time, dur time.Duration) int32 {
	s := int64(start.Sub(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: s, End: s + int64(dur)})
	t.mu.Unlock()
	return id
}

// scope is where new spans attach: a trace, a parent span and an op.
// The zero scope records nothing, so one code path serves the traced
// and the untraced run.
type scope struct {
	t      *trace
	parent int32
	op     int32
}

func (sc scope) on() bool { return sc.t != nil }

// span runs fn inside a child span named name.
func (sc scope) span(name string, fn func(scope)) {
	if sc.t == nil {
		fn(sc)
		return
	}
	id := sc.t.begin(name, sc.parent, sc.op)
	fn(scope{t: sc.t, parent: id, op: sc.op})
	sc.t.end(id)
}

// forOp returns the scope of op number op with no parent.
func (sc scope) forOp(op int) scope { return scope{t: sc.t, op: int32(op)} }

func (t *trace) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTotals is the reduction of a span list by name.
type spanTotals struct {
	Count int
	Dur   int64 // summed durations
	Self  int64 // summed self times
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Children may overlap one
// another (two clients under one parent) and may stick out of the
// parent (a flight record's clock), so the covered part is the union
// of the children's intervals clipped to the parent's.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// reduce sums count, duration and self time by span name. ops selects
// spans of the op loop (Op >= 0) or outside it.
func reduce(spans []span, inOps bool) map[string]spanTotals {
	self := selfTimes(spans)
	out := map[string]spanTotals{}
	for i, s := range spans {
		if (s.Op >= 0) != inOps {
			continue
		}
		t := out[s.Name]
		t.Count++
		t.Dur += s.End - s.Start
		t.Self += self[i]
		out[s.Name] = t
	}
	return out
}
