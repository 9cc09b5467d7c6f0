package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unchained"
	"unchained/internal/serve"
)

const (
	// One client, not ISSUE 11's nproc (2): the host now and then starves
	// one of the guest's two vCPUs for minutes, and with both clients
	// needing a core no repetition of any request escaped it (op_ms_best
	// 60% up over four runs in a row, against 0-20% on the workloads
	// that keep one goroutine busy).
	serveClients         = 1
	serveTenants         = 4
	servePool            = 64 // distinct fact sets, each with its expected output
	serveNodes, serveEdg = 60, 120
	serveOps             = 64 // the op list: every fact set once
	serveMissEvery       = 16 // one request in this many carries a never-seen program
)

// tenantProgram is tenant i's text of TC. The daemon keys tenants and
// its parse cache by the digest of the program text, so four texts are
// four tenants; all four compute the same T, which one oracle checks.
func tenantProgram(i int) string {
	rules := [2]string{"T(X,Y) :- G(X,Y).\n", "T(X,Y) :- G(X,Z), T(Z,Y).\n"}
	if i%2 == 1 {
		rules[1] = "T(X,Y) :- T(X,Z), G(Z,Y).\n"
	}
	return fmt.Sprintf("%% tenant %d\n", i) + rules[0] + rules[1]
}

type serveOp struct {
	tenant int
	facts  int    // index into the pool
	body   []byte // the encoded request, nil for a cache-miss op (built per request)
}

// serveWorkload posts /v1/eval requests to a daemon running in this
// process on a loopback port.
type serveWorkload struct {
	srv    *serve.Server
	http   *http.Server
	served chan error
	url    string
	client *http.Client

	facts []string // pool of facts texts
	want  []string // expected output per pool entry, from the BFS oracle
	ops   []serveOp
	cold  atomic.Int64 // numbers the never-seen program texts

	mu  sync.Mutex
	ids map[string]int32 // request id -> client span, traced runs only
}

func (w *serveWorkload) clients() int                  { return serveClients }
func (w *serveWorkload) cycle() int                    { return len(w.ops) }
func (w *serveWorkload) checkAllocs() (uint64, uint64) { return 0, 0 }

func (w *serveWorkload) setup(e *env, seed int64, sc scope) error {
	rng := rand.New(rand.NewSource(seed))
	shape := rand.New(rand.NewSource(shapeSeed))
	for i := 0; i < servePool; i++ {
		lab := newLabels(rng, "n", serveNodes)
		es := randomEdges(shape, serveNodes, serveEdg)
		in := facts{}
		in.addEdges("G", es, lab)
		w.facts = append(w.facts, in.input(rng))
		w.want = append(w.want, tcFacts(serveNodes, es, lab).output())
	}
	for i := 0; i < serveOps; i++ {
		op := serveOp{tenant: i % serveTenants, facts: (i * 7) % servePool}
		if i%serveMissEvery != serveMissEvery-1 {
			var err error
			if op.body, err = json.Marshal(w.request(tenantProgram(op.tenant), op.facts)); err != nil {
				return err
			}
		}
		w.ops = append(w.ops, op)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = serve.New(serve.Config{})
	w.http = &http.Server{Handler: w.srv}
	w.served = make(chan error, 1)
	go func() { w.served <- w.http.Serve(ln) }()
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}, Timeout: 30 * time.Second}
	if sc.on() {
		w.ids = map[string]int32{}
	}

	for k := range w.ops { // warm-up: every op once
		if _, check := w.op(k, scope{}); check == nil || !check() {
			return fmt.Errorf("warm-up request %d failed", k)
		}
	}
	return nil
}

func (w *serveWorkload) request(program string, facts int) serve.EvalRequest {
	return serve.EvalRequest{
		Envelope:  serve.Envelope{Program: program, Facts: w.facts[facts]},
		Semantics: "minimal-model",
	}
}

func (w *serveWorkload) op(k int, sc scope) ([]time.Duration, func() bool) {
	op := &w.ops[k%len(w.ops)]
	body := op.body
	if body == nil {
		prog := fmt.Sprintf("%% cold %d\n", w.cold.Add(1)) + tenantProgram(op.tenant)
		var err error
		if body, err = json.Marshal(w.request(prog, op.facts)); err != nil {
			return nil, nil
		}
	}
	var (
		resp serve.EvalResponse
		err  error
	)
	sc.span("serve.request", func(sc scope) {
		var r *http.Response
		if r, err = w.client.Post(w.url+"/v1/eval", "application/json", bytes.NewReader(body)); err != nil {
			return
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			io.Copy(io.Discard, r.Body)
			err = fmt.Errorf("status %d", r.StatusCode)
			return
		}
		err = json.NewDecoder(r.Body).Decode(&resp)
		if sc.on() {
			w.mu.Lock()
			w.ids[r.Header.Get("X-Request-Id")] = sc.parent
			w.mu.Unlock()
		}
	})
	if err != nil {
		return nil, nil
	}
	want := w.want[op.facts]
	return nil, func() bool { return resp.OK && resp.Output == want }
}

func (w *serveWorkload) close() error {
	if w.http == nil {
		return nil
	}
	w.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.http.Shutdown(ctx)
	if serr := <-w.served; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	if cerr := w.srv.Close(); err == nil {
		err = cerr
	}
	w.http = nil
	return err
}

func (w *serveWorkload) get(path string, into any) error {
	r, err := w.client.Get(w.url + path)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, r.StatusCode)
	}
	return json.NewDecoder(r.Body).Decode(into)
}

// flightRecord holds the fields of the daemon's flight records
// (GET /debug/flight) that the traced run reads.
type flightRecord struct {
	ID          string `json:"id"`
	StartUnixNS int64  `json:"start_unix_ns"`
	QueueNS     int64  `json:"queue_ns"`
	EvalNS      int64  `json:"eval_ns"`
	WallNS      int64  `json:"wall_ns"`
}

func (w *serveWorkload) layers(sc scope, ops map[string]spanTotals, nOps int) (map[string]float64, error) {
	m := map[string]float64{}
	m["serve.req_ms_p99"] = spanP(sc.t.spans, "serve.request", 0.99) / 1e6

	// The daemon's own account of the most recent requests, attached to
	// the client spans that caused them.
	var page struct {
		Records []flightRecord `json:"records"`
	}
	if err := w.get("/debug/flight", &page); err != nil {
		return nil, err
	}
	var wall, queue, eval, rest, overhead []float64
	for _, r := range page.Records {
		parent, ok := w.ids[r.ID]
		if !ok {
			continue
		}
		client := sc.t.spans[parent-1]
		start := time.Unix(0, r.StartUnixNS)
		id := sc.t.record("serve.server_wall", parent, client.Op, start, time.Duration(r.WallNS))
		sc.t.record("serve.queue", id, client.Op, start, time.Duration(r.QueueNS))
		sc.t.record("serve.eval", id, client.Op, start.Add(time.Duration(r.WallNS-r.EvalNS)), time.Duration(r.EvalNS))
		wall = append(wall, float64(r.WallNS)/1e6)
		queue = append(queue, float64(r.QueueNS)/1e6)
		eval = append(eval, float64(r.EvalNS)/1e6)
		rest = append(rest, float64(r.WallNS-r.QueueNS-r.EvalNS)/1e6)
		overhead = append(overhead, float64(client.End-client.Start-r.WallNS)/1e6)
	}
	if len(wall) == 0 {
		return nil, fmt.Errorf("no flight record matches a traced request")
	}
	for name, v := range map[string][]float64{
		"serve.server_wall_ms_p50": wall, "serve.queue_ms_p50": queue, "serve.eval_ms_p50": eval,
		"serve.rest_ms_p50": rest, "serve.http_overhead_ms_p50": overhead,
	} {
		sort.Float64s(v)
		m[name] = percentile(v, 0.5)
	}

	var st struct {
		CacheHits   float64 `json:"cache_hits"`
		CacheMisses float64 `json:"cache_misses"`
		Admitted    float64 `json:"admitted"`
		Shed        float64 `json:"shed"`
		QueueTO     float64 `json:"queue_timeouts"`
		PlanHits    float64 `json:"plan_cache_hits"`
		PlanMisses  float64 `json:"plan_cache_misses"`
		CowSnap     float64 `json:"cow_snapshots"`
		CowProm     float64 `json:"cow_promotions"`
		CowCopied   float64 `json:"cow_tuples_copied"`
		EvalsOK     float64 `json:"evals_ok"`
	}
	if err := w.get("/statsz", &st); err != nil {
		return nil, err
	}
	m["serve.cache_hit_share"] = st.CacheHits / (st.CacheHits + st.CacheMisses)
	m["serve.shed_share"] = (st.Shed + st.QueueTO) / (st.Admitted + st.Shed + st.QueueTO)
	if st.PlanHits+st.PlanMisses > 0 {
		m["eval.plan_cache_hit_share"] = st.PlanHits / (st.PlanHits + st.PlanMisses)
	}
	m["tuple.cow_snapshots"] = st.CowSnap / st.EvalsOK
	m["tuple.cow_promotions"] = st.CowProm / st.EvalsOK
	m["tuple.cow_tuples_copied"] = st.CowCopied / st.EvalsOK

	// The request path's own steps, replayed through the public
	// functions the handler calls.
	op := &w.ops[0]
	base := unchained.NewSession()
	prog, err := base.Parse(tenantProgram(op.tenant))
	if err != nil {
		return nil, err
	}
	const reps = 200
	var out caseOutput
	m["serve.decode_us"] = timeKernel(sc, "serve.decode", reps, func() {
		var req serve.EvalRequest
		err = json.Unmarshal(op.body, &req)
	}).ns / 1e3
	m["serve.fork_facts_us"] = timeKernel(sc, "serve.fork_facts", reps, func() {
		out.sess = base.Fork()
		out.in, err = out.sess.Facts(w.facts[op.facts])
	}).ns / 1e3
	if err != nil {
		return nil, err
	}
	out.res, err = out.sess.EvalContext(context.Background(), prog, out.in, unchained.MinimalModel)
	if err != nil {
		return nil, err
	}
	resp := serve.EvalResponse{OK: true, Semantics: "minimal-model", Output: out.sess.Format(out.res.Out), Stages: out.res.Stages}
	m["serve.encode_us"] = timeKernel(sc, "serve.encode", reps, func() {
		err = json.NewEncoder(io.Discard).Encode(&resp)
	}).ns / 1e3
	if err != nil {
		return nil, err
	}

	err = kernels(sc, m, kernelInput{
		sess: out.sess, inst: out.res.Out, program: tenantProgram(op.tenant),
		facts: w.facts[op.facts], joinRule: "T(X,Y) :- G(X,Z), T(Z,Y).", big: "T",
	})
	return m, err
}
