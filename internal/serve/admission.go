// Admission control for the evaluation daemon: a bounded in-flight
// semaphore with per-tenant fair queuing. Tenants are keyed by the
// parse cache's program digest (hex sha256 of the source), so "one
// tenant" is "one program" — a client hammering a single expensive
// program queues behind itself while other programs' requests keep
// flowing.
//
// The gate has three outcomes:
//
//   - admit: a slot is free and nobody is queued ahead — run now;
//   - queue: all slots busy — wait FIFO within the tenant, round-robin
//     across tenants, until a slot frees, the wait budget expires
//     (503), or the client goes away;
//   - shed: the queue is at capacity — reject immediately with 429 and
//     a Retry-After hint, bounding both memory and tail latency.
//
// Slots are handed off directly from a releasing request to the next
// queued waiter (running never dips and re-fills), so admission order
// is exactly queue order and the gate cannot be starved by a burst of
// fresh arrivals.
package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// errShed is returned when the queue is full; the request is rejected
// with 429 and a Retry-After hint.
var errShed = errors.New("admission: queue full")

// errQueueWait is returned when a queued request exhausts its wait
// budget; the request is rejected with 503 and a Retry-After hint.
var errQueueWait = errors.New("admission: queue wait exceeded")

// waiter is one queued request. The admitting goroutine closes ready
// to hand its slot over; a waiting goroutine that gives up first takes
// itself out of the queue (abandon).
type waiter struct {
	ready chan struct{}
}

// tenantQueue is one tenant's FIFO of waiters.
type tenantQueue struct {
	key     string
	waiters []*waiter
}

// gate is the admission controller. The zero value is not usable;
// construct with newGate.
type gate struct {
	capacity int           // in-flight slots
	maxQueue int           // total queued waiters across tenants
	maxWait  time.Duration // per-request queue wait budget

	mu      sync.Mutex
	running int
	queued  int
	// tenants holds the round-robin ring of non-empty tenant queues;
	// byKey indexes it. next is the ring position of the next tenant to
	// be served on release.
	tenants []*tenantQueue
	byKey   map[string]*tenantQueue
	next    int

	// Monotonic counters, reported by /statsz and /metrics.
	admitted  atomic.Uint64
	queuedTot atomic.Uint64
	shed      atomic.Uint64
	waitDrop  atomic.Uint64
	waitLat   *latHist
}

func newGate(capacity, maxQueue int, maxWait time.Duration) *gate {
	return &gate{
		capacity: capacity,
		maxQueue: maxQueue,
		maxWait:  maxWait,
		byKey:    map[string]*tenantQueue{},
		waitLat:  newLatHist(),
	}
}

// depth reports the current queue depth (a gauge).
func (g *gate) depth() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.queued
}

// inFlight reports the slots currently held (a gauge).
func (g *gate) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.running
}

// acquire admits the request, queues it, or sheds it. A nil gate (or
// capacity <= 0) admits everything. On success the caller must call
// release exactly once. ctx cancellation while queued surfaces as
// ctx.Err().
func (g *gate) acquire(ctx context.Context, tenant string) error {
	if g == nil || g.capacity <= 0 {
		return nil
	}
	g.mu.Lock()
	// Fast path: free slot and an empty queue (no one has priority).
	if g.running < g.capacity && g.queued == 0 {
		g.running++
		g.mu.Unlock()
		g.admitted.Add(1)
		return nil
	}
	if g.queued >= g.maxQueue {
		g.mu.Unlock()
		g.shed.Add(1)
		return errShed
	}
	w := &waiter{ready: make(chan struct{})}
	q := g.byKey[tenant]
	if q == nil {
		q = &tenantQueue{key: tenant}
		g.byKey[tenant] = q
		g.tenants = append(g.tenants, q)
	}
	q.waiters = append(q.waiters, w)
	g.queued++
	// A slot may be free even with waiters queued (released while the
	// ring was empty cannot happen — release hands off directly — but
	// the fast path above races with enqueueing; promote eagerly so a
	// freshly freed slot never idles while we wait).
	g.promoteLocked()
	g.mu.Unlock()
	g.queuedTot.Add(1)

	timer := time.NewTimer(g.maxWait)
	defer timer.Stop()
	begin := time.Now()
	select {
	case <-w.ready:
	case <-timer.C:
		if g.abandon(q, w) {
			g.waitDrop.Add(1)
			return errQueueWait
		}
		// Lost the race: the slot was already handed to us.
	case <-ctx.Done():
		if !g.abandon(q, w) {
			g.release()
		}
		return ctx.Err()
	}
	g.waitLat.observe(time.Since(begin))
	g.admitted.Add(1)
	return nil
}

// abandon takes a waiter that gave up out of its tenant's queue, so it
// stops counting toward the queue depth at once and not at the next
// release (a burst of queue timeouts must not leave the gate shedding
// arrivals for an empty queue). It returns false when the waiter was
// already granted a slot — the caller then owns that slot and must
// either use it or release it.
func (g *gate) abandon(q *tenantQueue, w *waiter) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-w.ready:
		return false
	default:
	}
	// Ungranted, so still queued: grantLocked pops and closes ready
	// under this same lock.
	for i, x := range q.waiters {
		if x == w {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			break
		}
	}
	g.queued--
	if len(q.waiters) == 0 {
		for i, x := range g.tenants {
			if x == q {
				g.dropTenantLocked(i)
				break
			}
		}
	}
	return true
}

// dropTenantLocked takes the emptied tenant at ring position i out of
// the ring, leaving next on the tenant it pointed at.
func (g *gate) dropTenantLocked(i int) {
	delete(g.byKey, g.tenants[i].key)
	g.tenants = append(g.tenants[:i], g.tenants[i+1:]...)
	if i < g.next {
		g.next--
	}
}

// release returns a slot: hand it to the next queued waiter
// (round-robin across tenants, FIFO within one) or mark it free.
func (g *gate) release() {
	if g == nil || g.capacity <= 0 {
		return
	}
	g.mu.Lock()
	if !g.handoffLocked() {
		g.running--
	}
	g.mu.Unlock()
}

// promoteLocked fills any free slots from the queue. Needed only on
// the enqueue path, where "slot free" and "queue non-empty" can hold
// at once for a moment.
func (g *gate) promoteLocked() {
	for g.running < g.capacity {
		if !g.grantLocked() {
			return
		}
		g.running++
	}
}

// handoffLocked transfers the caller's slot to the next waiter,
// keeping running constant. Returns false when no waiter is eligible.
func (g *gate) handoffLocked() bool {
	return g.grantLocked()
}

// grantLocked pops the next waiter in round-robin tenant order and
// wakes it. Returns false when nobody is queued. Every tenant in the
// ring has a waiter: the pop below and abandon drop a tenant the
// moment its queue empties.
func (g *gate) grantLocked() bool {
	if g.queued == 0 {
		return false
	}
	if g.next >= len(g.tenants) {
		g.next = 0
	}
	q := g.tenants[g.next]
	w := q.waiters[0]
	q.waiters = q.waiters[1:]
	g.queued--
	if len(q.waiters) == 0 {
		g.dropTenantLocked(g.next)
	} else {
		g.next++
	}
	close(w.ready)
	return true
}
