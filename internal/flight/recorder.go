package flight

import (
	"container/heap"
	"encoding/json"
	"io"
	"log/slog"
	"sync"
	"time"
)

// Defaults for the recorder's bounds, which cmd/unchained-serve's
// -flight-ring and -flight-topk flags default to.
const (
	// DefaultRingSize is how many recent records the ring keeps.
	DefaultRingSize = 256
	// DefaultTopK is how many all-time-slowest records the heap keeps.
	DefaultTopK = 32
	// slowWarnInterval rate-limits slow-query slog warnings: at most
	// one warning per interval, with a suppressed count carried on the
	// next one that gets through.
	slowWarnInterval = 10 * time.Second
)

// slowHeap is a min-heap of records ordered by WallNS, so the root is
// the fastest of the kept slowest and eviction is O(log k).
type slowHeap []*Record

func (h slowHeap) Len() int           { return len(h) }
func (h slowHeap) Less(i, j int) bool { return h[i].WallNS < h[j].WallNS }
func (h slowHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *slowHeap) Push(x any)        { *h = append(*h, x.(*Record)) }
func (h *slowHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// Options configures a Recorder. The zero value is valid: default
// bounds, no slow-query log, no slow threshold (nothing is "slow").
type Options struct {
	// RingSize and TopK bound the recorder's memory (defaults above).
	RingSize int
	TopK     int
	// SlowThreshold marks records with WallNS >= it as slow queries;
	// zero disables slow-query handling entirely.
	SlowThreshold time.Duration
	// SlowLog, when non-nil, receives one JSON line per slow record
	// (the Record schema). The recorder serializes writes.
	SlowLog io.Writer
	// Logger, when non-nil, gets rate-limited warnings for slow
	// queries (at most one per 10s, with a suppressed counter).
	Logger *slog.Logger
}

// Recorder is the daemon-wide flight-record store: a fixed-size ring
// of the most recent records, a top-K heap of the slowest since
// start, the slow-query JSONL log, and monotonic totals for /metrics.
// Safe for concurrent use; Observe is O(log k) plus (for slow
// queries) one JSON encode.
type Recorder struct {
	mu       sync.Mutex
	ring     []*Record
	head     int // index of the oldest ring entry
	n        int // ring occupancy
	ringCap  int
	topK     int
	slow     slowHeap
	slowNS   int64
	slowLog  io.Writer
	logErr   bool // first slow-log write error reported
	logger   *slog.Logger
	lastWarn time.Time
	warnHeld uint64 // warnings suppressed since lastWarn

	total     uint64 // records observed
	slowTotal uint64 // records at/over the slow threshold
}

// NewRecorder returns a Recorder with the given options.
func NewRecorder(opts Options) *Recorder {
	if opts.RingSize <= 0 {
		opts.RingSize = DefaultRingSize
	}
	if opts.TopK <= 0 {
		opts.TopK = DefaultTopK
	}
	return &Recorder{
		ring:    make([]*Record, opts.RingSize),
		ringCap: opts.RingSize,
		topK:    opts.TopK,
		slowNS:  opts.SlowThreshold.Nanoseconds(),
		slowLog: opts.SlowLog,
		logger:  opts.Logger,
	}
}

// Observe files one finished record: into the ring, into the top-K
// heap if it qualifies, and — when at/over the slow threshold — into
// the slow-query log with a rate-limited warning. The recorder owns
// the record after the call.
func (r *Recorder) Observe(rec *Record) {
	if r == nil || rec == nil {
		return
	}
	var slowLine []byte
	r.mu.Lock()
	r.total++
	r.ring[(r.head+r.n)%r.ringCap] = rec
	if r.n < r.ringCap {
		r.n++
	} else {
		r.head = (r.head + 1) % r.ringCap
	}
	if len(r.slow) < r.topK {
		heap.Push(&r.slow, rec)
	} else if r.slow[0].WallNS < rec.WallNS {
		r.slow[0] = rec
		heap.Fix(&r.slow, 0)
	}
	slow := r.slowNS > 0 && rec.WallNS >= r.slowNS
	if slow {
		r.slowTotal++
		if r.slowLog != nil {
			// Encode under the lock: the record is shared with the
			// ring/heap and must not be read while a later Observe
			// could alias it. Records are small; encoding is cheap
			// relative to a slow query by definition.
			if b, err := json.Marshal(rec); err == nil {
				slowLine = append(b, '\n')
			}
		}
	}
	warn := (*slog.Logger)(nil)
	var held uint64
	if slow && r.logger != nil {
		now := time.Now()
		if now.Sub(r.lastWarn) >= slowWarnInterval {
			warn, held = r.logger, r.warnHeld
			r.lastWarn = now
			r.warnHeld = 0
		} else {
			r.warnHeld++
		}
	}
	w, logErrSeen := r.slowLog, r.logErr
	r.mu.Unlock()

	if slowLine != nil && w != nil {
		if _, err := w.Write(slowLine); err != nil && !logErrSeen {
			r.mu.Lock()
			first := !r.logErr
			r.logErr = true
			r.mu.Unlock()
			if first && r.logger != nil {
				r.logger.Error("slow-query log write failed", "err", err)
			}
		}
	}
	if warn != nil {
		stages := 0
		if rec.Summary != nil { // nil when no engine ran: a slow wait in the queue
			stages = rec.Stages
		}
		warn.Warn("slow query",
			"trace_id", rec.ID,
			"tenant", rec.Tenant,
			"outcome", rec.Outcome,
			"wall_ms", rec.WallNS/1e6,
			"queue_ms", rec.QueueNS/1e6,
			"eval_ms", rec.EvalNS/1e6,
			"stages", stages,
			"suppressed", held,
		)
	}
}

// Recent returns the ring contents, newest first.
func (r *Recorder) Recent() []*Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Record, 0, r.n)
	for i := r.n - 1; i >= 0; i-- {
		out = append(out, r.ring[(r.head+i)%r.ringCap])
	}
	return out
}

// Slowest returns the top-K slowest records since start, slowest
// first.
func (r *Recorder) Slowest() []*Record {
	r.mu.Lock()
	out := append([]*Record(nil), r.slow...)
	r.mu.Unlock()
	// Sort descending by wall time; K is small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].WallNS > out[j-1].WallNS; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Totals reports the monotonic counters: records observed and records
// at/over the slow threshold.
func (r *Recorder) Totals() (total, slow uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total, r.slowTotal
}

// Bounds reports the configured memory bounds and slow threshold, for
// /v1/status.
func (r *Recorder) Bounds() (ringSize, topK int, slowThreshold time.Duration) {
	return r.ringCap, r.topK, time.Duration(r.slowNS)
}
