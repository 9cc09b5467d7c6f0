package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"unchained/internal/store"
	"unchained/internal/tuple"
)

// sseClient reads Server-Sent Events off a /v1/subscribe response.
type sseClient struct {
	resp   *http.Response
	rd     *bufio.Reader
	cancel context.CancelFunc
}

// subscribe opens a standing query and returns a client positioned
// before the first event. Callers must Close.
func subscribe(t *testing.T, url string, req SubscribeRequest) *sseClient {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/subscribe", bytes.NewReader(b))
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("subscribe: %d: %s", resp.StatusCode, buf.String())
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("subscribe content type %q", ct)
	}
	return &sseClient{resp: resp, rd: bufio.NewReader(resp.Body), cancel: cancel}
}

func (c *sseClient) Close() {
	c.cancel()
	c.resp.Body.Close()
}

// next reads one SSE event, decoding the data payload into ev (for
// snapshot/delta events) or returning the error envelope.
func (c *sseClient) next(t *testing.T) (event string, ev SubscribeEvent, info ErrorInfo) {
	t.Helper()
	var data string
	for {
		line, err := c.rd.ReadString('\n')
		if err != nil {
			t.Fatalf("subscription stream ended: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if event == "" {
				continue // leading keep-alive blank
			}
			var err error
			if event == "error" {
				err = json.Unmarshal([]byte(data), &info)
			} else {
				err = json.Unmarshal([]byte(data), &ev)
			}
			if err != nil {
				t.Fatalf("bad %s payload %q: %v", event, data, err)
			}
			return event, ev, info
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
}

func postFacts(t *testing.T, url string, req FactsRequest) FactsResponse {
	t.Helper()
	resp, body := post(t, url+"/v1/facts", req)
	var fr FactsResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatalf("facts response %q: %v", body, err)
	}
	if resp.StatusCode != http.StatusOK || !fr.OK {
		t.Fatalf("facts: %d: %s", resp.StatusCode, body)
	}
	return fr
}

// TestSubscribeLifecycle is the full standing-query round trip:
// snapshot, delta on assert (with derived facts), compensating delta
// on retract, predicate filtering throughout.
func TestSubscribeLifecycle(t *testing.T) {
	ts := newTestServer(t)

	fr := postFacts(t, ts.URL, FactsRequest{DB: "life", Assert: "G(a,b)."})
	if fr.Seq != 1 || fr.Asserted != 1 {
		t.Fatalf("seed batch: %+v", fr)
	}

	sub := subscribe(t, ts.URL, SubscribeRequest{DB: "life", Program: tcProgram, Predicates: []string{"T"}})
	defer sub.Close()

	event, ev, _ := sub.next(t)
	if event != "snapshot" || ev.Seq != 1 {
		t.Fatalf("first event %s %+v", event, ev)
	}
	if len(ev.Facts) != 1 || ev.Facts[0] != "T(a,b)" {
		t.Fatalf("snapshot facts: %v", ev.Facts)
	}

	// Assert G(b,c): the view derives T(b,c) and, transitively, T(a,c).
	postFacts(t, ts.URL, FactsRequest{DB: "life", Assert: "G(b,c)."})
	event, ev, _ = sub.next(t)
	if event != "delta" || ev.Seq != 2 {
		t.Fatalf("delta event %s %+v", event, ev)
	}
	if want := []string{"T(a,c)", "T(b,c)"}; fmt.Sprint(ev.Added) != fmt.Sprint(want) || len(ev.Removed) != 0 {
		t.Fatalf("delta after assert: %+v", ev)
	}

	// Retract it again: the compensating delta removes exactly what the
	// assert added (T(a,c) is checked and has no proof left).
	postFacts(t, ts.URL, FactsRequest{DB: "life", Retract: "G(b,c)."})
	event, ev, _ = sub.next(t)
	if event != "delta" || ev.Seq != 3 {
		t.Fatalf("compensating event %s %+v", event, ev)
	}
	if want := []string{"T(a,c)", "T(b,c)"}; fmt.Sprint(ev.Removed) != fmt.Sprint(want) || len(ev.Added) != 0 {
		t.Fatalf("compensating delta: %+v", ev)
	}

	// A batch invisible under the predicate filter stays silent: the
	// next event the client sees must be the G(c,d)-driven delta, not
	// an empty one for the filtered H fact.
	postFacts(t, ts.URL, FactsRequest{DB: "life", Assert: "H(x)."})
	postFacts(t, ts.URL, FactsRequest{DB: "life", Assert: "G(a,c)."})
	event, ev, _ = sub.next(t)
	if event != "delta" || ev.Seq != 5 || len(ev.Added) != 1 || ev.Added[0] != "T(a,c)" {
		t.Fatalf("filtered stream: %s %+v", event, ev)
	}
}

// TestSubscribeDisconnectReleasesSlot: a subscription occupies one
// admission slot for its lifetime; disconnecting frees it and the
// handler goroutine exits.
func TestSubscribeDisconnectReleasesSlot(t *testing.T) {
	svc := New(Config{MaxInFlight: 1, QueueWait: 30 * time.Millisecond})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	before := runtime.NumGoroutine()
	sub := subscribe(t, ts.URL, SubscribeRequest{DB: "slots"})
	if event, _, _ := sub.next(t); event != "snapshot" {
		t.Fatalf("first event %s", event)
	}

	// The slot is held: an eval must time out in the admission queue.
	resp, _ := post(t, ts.URL+"/v1/eval", EvalRequest{
		Envelope: Envelope{Program: "P(X) :- Q(X).", Facts: "Q(a)."},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("eval while subscribed: %d, want 503", resp.StatusCode)
	}

	// Disconnect; the slot frees as the handler unwinds.
	sub.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := post(t, ts.URL+"/v1/eval", EvalRequest{
			Envelope: Envelope{Program: "P(X) :- Q(X).", Facts: "Q(a)."},
		})
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never released: still %d", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for time.Now().Before(deadline) {
		// Idle keep-alive connections hold server goroutines; drop them
		// so only a leaked subscription handler could keep the count up.
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before subscribe, %d now", before, runtime.NumGoroutine())
}

// TestSubscribeOverflow: a subscriber that falls more than SubBuffer
// batches behind is cut off with the stable "subscription_overflow"
// code instead of ever back-pressuring the commit path.
func TestSubscribeOverflow(t *testing.T) {
	svc := New(Config{SubBuffer: 1})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	postFacts(t, ts.URL, FactsRequest{DB: "slow", Assert: "E(a,b)."})
	sub := subscribe(t, ts.URL, SubscribeRequest{DB: "slow"})
	defer sub.Close()
	if event, _, _ := sub.next(t); event != "snapshot" {
		t.Fatalf("first event %s", event)
	}

	// Pin the handle mutex so the delivery loop cannot drain, then
	// commit straight to the store: batch 1 parks in the handler, batch
	// 2 fills the buffer, batch 3 overflows.
	h, info := svc.dbs.get("slow")
	if info != nil {
		t.Fatalf("registry lost the db: %+v", info)
	}
	u := h.st.Universe()
	h.mu.Lock()
	for i := 0; i < 3; i++ {
		_, err := h.st.Apply(store.Batch{Assert: []store.Fact{{
			Pred:  "E",
			Tuple: tuple.Tuple{u.Sym("a"), u.Int(int64(i))},
		}}})
		if err != nil {
			h.mu.Unlock()
			t.Fatal(err)
		}
	}
	h.mu.Unlock()

	for {
		event, _, ei := sub.next(t)
		if event == "delta" {
			continue // batches delivered before the cutoff are fine
		}
		if event != "error" || ei.Code != CodeSubOverflow {
			t.Fatalf("overflow event %s %+v", event, ei)
		}
		break
	}
	if got := svc.subsOverflows.Load(); got != 1 {
		t.Fatalf("overflow counter = %d", got)
	}
}

// TestFactsDurableAcrossRestart: with a data directory, a second
// server over the same directory sees the first server's facts — the
// named database is a WAL store recovered on open.
func TestFactsDurableAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	svc1 := New(Config{DataDir: dir})
	ts1 := httptest.NewServer(svc1)
	postFacts(t, ts1.URL, FactsRequest{DB: "dur", Assert: "G(a,b). G(b,c)."})
	ts1.Close()
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}

	svc2 := New(Config{DataDir: dir})
	ts2 := httptest.NewServer(svc2)
	defer ts2.Close()
	defer svc2.Close()

	sub := subscribe(t, ts2.URL, SubscribeRequest{DB: "dur", Program: tcProgram, Predicates: []string{"T"}})
	defer sub.Close()
	event, ev, _ := sub.next(t)
	if event != "snapshot" || ev.Seq != 1 {
		t.Fatalf("recovered snapshot: %s %+v", event, ev)
	}
	if want := []string{"T(a,b)", "T(a,c)", "T(b,c)"}; fmt.Sprint(ev.Facts) != fmt.Sprint(want) {
		t.Fatalf("recovered view: %v", ev.Facts)
	}
}

// TestFactsBodiesAreNotKept: a database keeps copies of the names a
// /v1/facts body adds, never slices of the body, so a body is garbage
// once its request is answered. A thousand 64 KB bodies, each adding
// one constant (and every hundredth a relation), leave the live heap
// within 1 MB of one body.
func TestFactsBodiesAreNotKept(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	pad := strings.Repeat("x", 64<<10)
	assert := func(i int) {
		body, err := json.Marshal(FactsRequest{DB: "pin", Assert: fmt.Sprintf("P%d(c%d). %% %s", i/100, i, pad)})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/facts", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("body %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	assert(0) // opens the database
	before := liveHeap()
	for i := 1; i <= 1000; i++ {
		assert(i)
	}
	grown := int64(liveHeap()) - int64(before)
	t.Logf("the live heap grew %d KB", grown>>10)
	if grown > 1<<20+int64(len(pad)) {
		t.Fatalf("1 000 bodies of 64 KB grew the live heap by %d KB, want within 1 MB of one body", grown>>10)
	}
}

// liveHeap is the heap still in use after two collections.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
