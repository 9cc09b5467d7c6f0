package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- gate unit tests -------------------------------------------------

func TestGateFastPath(t *testing.T) {
	g := newGate(3, 8, time.Second)
	for i := 0; i < 3; i++ {
		if err := g.acquire(context.Background(), "t"); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	if got := g.inFlight(); got != 3 {
		t.Fatalf("inFlight = %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		g.release()
	}
	if got := g.inFlight(); got != 0 {
		t.Fatalf("inFlight after release = %d, want 0", got)
	}
	if got := g.admitted.Load(); got != 3 {
		t.Fatalf("admitted = %d, want 3", got)
	}
}

func TestGateNilAndDisabledAdmitEverything(t *testing.T) {
	var g *gate
	if err := g.acquire(context.Background(), "t"); err != nil {
		t.Fatalf("nil gate: %v", err)
	}
	g.release() // must not panic
	g = newGate(0, 0, time.Second)
	if err := g.acquire(context.Background(), "t"); err != nil {
		t.Fatalf("capacity 0 gate must admit: %v", err)
	}
	g.release()

	// A server without a gate admits, and reports nothing admitted,
	// queued or shed.
	ts := httptest.NewServer(New(Config{MaxInFlight: -1}))
	defer ts.Close()
	if resp, body := post(t, ts.URL+"/v1/eval", EvalRequest{Envelope: Envelope{Program: tcProgram, Facts: "G(a,b)."}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("eval without a gate: %d: %s", resp.StatusCode, body)
	}
	if z := statsz(t, ts.URL); z["evals_ok"] != 1 || z["admitted"]+z["queued"]+z["shed"]+z["queue_timeouts"]+z["queue_depth"] != 0 {
		t.Fatalf("statsz without a gate: %v", z)
	}
	if _, metrics := get(t, ts.URL+"/metrics"); !bytes.Contains(metrics, []byte("unchained_admission_admitted_total 0\n")) {
		t.Fatalf("/metrics without a gate:\n%s", metrics)
	}
}

func TestGateShedAtFullQueue(t *testing.T) {
	g := newGate(1, 1, time.Minute)
	if err := g.acquire(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	// Fill the single queue slot from another goroutine.
	admitted := make(chan error, 1)
	go func() {
		err := g.acquire(context.Background(), "b")
		admitted <- err
	}()
	waitFor(t, func() bool { return g.depth() == 1 })
	// Queue full: the next arrival is shed immediately.
	if err := g.acquire(context.Background(), "c"); !errors.Is(err, errShed) {
		t.Fatalf("want errShed, got %v", err)
	}
	if got := g.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	// Release the slot: the queued waiter is handed the slot directly.
	g.release()
	if err := <-admitted; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	g.release()
}

func TestGateQueueWaitTimeout(t *testing.T) {
	g := newGate(1, 4, 20*time.Millisecond)
	if err := g.acquire(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := g.acquire(context.Background(), "b")
	if !errors.Is(err, errQueueWait) {
		t.Fatalf("want errQueueWait, got %v", err)
	}
	if wait := time.Since(start); wait < 20*time.Millisecond || wait > 5*time.Second {
		t.Fatalf("queued for %v, want the 20ms budget", wait)
	}
	if got := g.waitDrop.Load(); got != 1 {
		t.Fatalf("waitDrop counter = %d, want 1", got)
	}
	g.release()
	// The abandoned waiter must not absorb the freed slot.
	if err := g.acquire(context.Background(), "c"); err != nil {
		t.Fatalf("slot lost to an abandoned waiter: %v", err)
	}
	g.release()
}

func TestGateCtxCancelWhileQueued(t *testing.T) {
	g := newGate(1, 4, time.Minute)
	if err := g.acquire(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		err := g.acquire(ctx, "b")
		got <- err
	}()
	waitFor(t, func() bool { return g.depth() == 1 })
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	g.release()
	// The canceled waiter must not hold the slot or linger in the queue.
	if err := g.acquire(context.Background(), "c"); err != nil {
		t.Fatalf("slot unavailable after cancel: %v", err)
	}
	if got := g.depth(); got != 0 {
		t.Fatalf("queue depth = %d after cancel, want 0", got)
	}
	g.release()
}

// TestGateTimedOutWaitersLeaveTheQueue: a waiter that gives up takes
// itself out of the queue. With the one slot held and room for two
// waiters, two arrivals time out; the queue is then empty, so a third
// arrival queues (it is not shed for a full queue of nobody) and is
// handed the slot when it frees.
func TestGateTimedOutWaitersLeaveTheQueue(t *testing.T) {
	g := newGate(1, 2, 20*time.Millisecond)
	if err := g.acquire(context.Background(), "hold"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, tenant := range []string{"a", "b"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			if err := g.acquire(context.Background(), tenant); !errors.Is(err, errQueueWait) {
				t.Errorf("tenant %s: want errQueueWait, got %v", tenant, err)
			}
		}(tenant)
	}
	wg.Wait()
	if got := g.depth(); got != 0 {
		t.Fatalf("queue depth = %d after both waiters timed out, want 0", got)
	}
	g.maxWait = time.Minute // the third arrival waits for its slot
	admitted := make(chan error, 1)
	go func() {
		err := g.acquire(context.Background(), "c")
		admitted <- err
	}()
	waitFor(t, func() bool { return g.depth() == 1 || len(admitted) == 1 })
	if got := g.shed.Load(); got != 0 || g.depth() != 1 {
		t.Fatalf("third arrival: shed = %d, queue depth = %d, want 0 and 1", got, g.depth())
	}
	g.release()
	if err := <-admitted; err != nil {
		t.Fatalf("third arrival: %v", err)
	}
	if len(g.tenants) != 0 || len(g.byKey) != 0 {
		t.Fatalf("emptied tenants left in the ring: %d in ring, %d indexed", len(g.tenants), len(g.byKey))
	}
	g.release()
}

// TestGateFairRoundRobin pins per-tenant fairness: with tenant A
// holding three queued requests and tenant B one, grants alternate
// across tenants (A, B, A, A) instead of draining A's FIFO first.
func TestGateFairRoundRobin(t *testing.T) {
	g := newGate(1, 8, time.Minute)
	if err := g.acquire(context.Background(), "hold"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	enqueue := func(label, tenant string) {
		depth := g.depth()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.acquire(context.Background(), tenant); err != nil {
				t.Errorf("%s: %v", label, err)
				return
			}
			mu.Lock()
			order = append(order, label)
			mu.Unlock()
			g.release() // hand the slot to the next waiter
		}()
		waitFor(t, func() bool { return g.depth() == depth+1 })
	}
	enqueue("a1", "A")
	enqueue("a2", "A")
	enqueue("a3", "A")
	enqueue("b1", "B")
	g.release() // surrender the held slot; grants cascade
	wg.Wait()
	want := []string{"a1", "b1", "a2", "a3"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("admission order %v, want %v", order, want)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// --- HTTP-level tests -------------------------------------------------
// (shedding, queue timeouts and cancellation while queued are rows of
// TestPipelineContract, on every endpoint)

// statsz GETs the server's /statsz object.
func statsz(t *testing.T, base string) map[string]int64 {
	t.Helper()
	var z map[string]int64
	if resp, raw := get(t, base+"/statsz"); resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &z) != nil {
		t.Fatalf("/statsz: %d %s", resp.StatusCode, raw)
	}
	return z
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestInvalidParallelOptionsHTTP: every delta round is serial, so a
// request that still names "shards", with any value, zero included, is
// a client error (400 invalid_options) on every endpoint that takes the
// envelope, never silently ignored.
func TestInvalidParallelOptionsHTTP(t *testing.T) {
	ts := newTestServer(t)
	for _, path := range []string{"/v1/eval", "/v1/query", "/v1/analyze"} {
		for _, shards := range []string{"-2", "0", "4"} {
			body := `{"program":` + strconv.Quote(tcProgram) + `,"facts":"G(a,b).","query":"T(a,X)","shards":` + shards + `}`
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var out struct{ Error *ErrorInfo }
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || out.Error == nil || out.Error.Code != CodeInvalidOptions {
				t.Fatalf("%s, shards %s: status %d, error %+v; want 400 %q", path, shards, resp.StatusCode, out.Error, CodeInvalidOptions)
			}
		}
	}
}

// TestSaturationAccounting drives the daemon past saturation: 24
// closed-loop clients over 4 tenant programs against 2 slots and 4
// queue places for about a second. The gate must shed, every 429 and
// 503 must carry Retry-After, nothing else may fail (no other 5xx, no
// transport error), and /statsz must count exactly the 429s (shed) and
// 503s (queue_timeouts) the clients saw.
func TestSaturationAccounting(t *testing.T) {
	const clients, tenants, chain = 24, 4, 48
	ts := httptest.NewServer(New(Config{MaxInFlight: 2, QueueDepth: 4, QueueWait: 5 * time.Millisecond}))
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()

	var mu sync.Mutex
	byStatus, noHint := map[int]int{}, 0
	deadline := time.Now().Add(time.Second)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		// Per-tenant relation names: every tenant is its own program
		// digest, the admission gate's fair-queuing key.
		i := c % tenants
		facts := ""
		for j := 0; j+1 < chain; j++ {
			facts += fmt.Sprintf("G%d(n%d,n%d). ", i, j, j+1)
		}
		body, err := json.Marshal(EvalRequest{Semantics: "minimal-model", Envelope: Envelope{
			Program: fmt.Sprintf("T%d(X,Y) :- G%d(X,Y).\nT%d(X,Y) :- G%d(X,Z), T%d(Z,Y).\n", i, i, i, i, i),
			Facts:   facts,
		}})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				resp, err := client.Post(ts.URL+"/v1/eval", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("transport error: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				shed := resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
				mu.Lock()
				byStatus[resp.StatusCode]++
				if shed && resp.Header.Get("Retry-After") == "" {
					noHint++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	st := statsz(t, ts.URL)
	for status, n := range byStatus {
		if status != http.StatusOK && status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
			t.Errorf("status %d x%d: only 200, 429 and 503 are admissible under saturation", status, n)
		}
	}
	if noHint > 0 {
		t.Errorf("%d shed responses (429/503) without Retry-After", noHint)
	}
	shed, dropped := byStatus[http.StatusTooManyRequests], byStatus[http.StatusServiceUnavailable]
	if shed+dropped == 0 || byStatus[http.StatusOK] == 0 {
		t.Errorf("no shedding, or nothing served, under %d clients: %v", clients, byStatus)
	}
	t.Logf("statuses %v; statsz admitted=%d queued=%d shed=%d queue_timeouts=%d", byStatus, st["admitted"], st["queued"], st["shed"], st["queue_timeouts"])
	if int64(shed) != st["shed"] || int64(dropped) != st["queue_timeouts"] {
		t.Errorf("clients saw %d 429s and %d 503s, the daemon counted shed=%d queue_timeouts=%d", shed, dropped, st["shed"], st["queue_timeouts"])
	}
}

// TestStatusEndpoint checks GET /v1/status reports build identity,
// the semantics list, and the effective limits.
func TestStatusEndpoint(t *testing.T) {
	svc := New(Config{MaxInFlight: 7})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	resp, body := get(t, ts.URL+"/v1/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out StatusResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Service != "unchained-serve" || out.GoVersion == "" {
		t.Fatalf("identity: %+v", out)
	}
	if len(out.Semantics) == 0 {
		t.Fatal("semantics list empty")
	}
	if out.Limits.MaxInFlight != 7 {
		t.Fatalf("limits: %+v", out.Limits)
	}
	if out.Limits.MaxBodyBytes != maxBodyBytes {
		t.Fatalf("max_body_bytes = %d", out.Limits.MaxBodyBytes)
	}
	found := false
	for _, e := range out.Endpoints {
		if e == "/v1/status" {
			found = true
		}
	}
	if !found {
		t.Fatalf("endpoint list missing /v1/status: %v", out.Endpoints)
	}
}

// TestShardedEvalHTTP round-trips the removed shards envelope field: a
// request that names it is refused before evaluation, so it runs no
// stage and counts as no evaluation, the same request without it
// evaluates, and /statsz carries no shard counters.
func TestShardedEvalHTTP(t *testing.T) {
	ts := newTestServer(t)
	req := EvalRequest{
		Envelope: Envelope{Program: tcProgram, Facts: "G(a,b). G(b,c). G(c,d).", Stats: true, Shards: json.RawMessage("4")},
	}
	resp, body := post(t, ts.URL+"/v1/eval", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sharded: %d: %s", resp.StatusCode, body)
	}
	if stz := statsz(t, ts.URL); stz["evals_ok"] != 0 || stz["stages_run"] != 0 || stz["bad_requests"] != 1 {
		t.Fatalf("a refused request was evaluated: %+v", stz)
	}
	req.Shards = nil
	resp, body = post(t, ts.URL+"/v1/eval", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("serial: %d: %s", resp.StatusCode, body)
	}
	var serial EvalResponse
	if err := json.Unmarshal(body, &serial); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(serial.Output, "T(a,d)") || serial.Stats == nil || serial.Stats.Derived != 6 {
		t.Fatalf("serial answer: %s", body)
	}
	stz := statsz(t, ts.URL)
	if stz["evals_ok"] != 1 {
		t.Fatalf("statsz evals_ok = %d, want 1", stz["evals_ok"])
	}
	for k := range stz {
		if strings.Contains(k, "shard") {
			t.Fatalf("statsz still carries %s", k)
		}
	}
}
