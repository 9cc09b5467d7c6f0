// Command unchained-serve is the long-lived HTTP/JSON evaluation
// daemon: it parses, caches, and evaluates programs of the Datalog
// family concurrently, with per-request deadlines that interrupt even
// non-terminating programs cleanly (see internal/serve and
// docs/API.md).
//
// Usage:
//
//	unchained-serve [-addr :8344] [-shards 8] [-cache 128]
//	                [-timeout 30s] [-max-timeout 5m]
//	                [-max-inflight 64] [-queue-depth 128] [-queue-wait 1s]
//	                [-ops-addr 127.0.0.1:8345] [-log text]
//	                [-slow-query-ms 1000] [-slow-query-log slow.jsonl]
//	                [-flight-ring 256] [-flight-topk 32] [-max-tenants 32]
//	                [-data-dir /var/lib/unchained] [-sub-buffer 64] [-max-dbs 64]
//
// -max-inflight bounds concurrently evaluating requests; excess
// requests queue (fairly across programs, -queue-depth total, each
// waiting at most -queue-wait) and are shed with 429/503 +
// Retry-After beyond that (see docs/PARALLEL.md).
//
// POST /v1/facts applies fact batches to named databases and POST
// /v1/subscribe streams incrementally maintained standing-query
// deltas over them (see docs/STORE.md and docs/API.md). With
// -data-dir each database is a write-ahead-logged store under
// <data-dir>/<name> that survives restarts; without it databases are
// in-memory. -sub-buffer bounds how far one subscriber may fall
// behind before being cut off; -max-dbs bounds open databases.
//
// The flight recorder is always on: every request leaves a bounded
// structured profile, browsable at GET /debug/flight and
// /debug/flight/slowest. Requests at/over -slow-query-ms wall time
// are additionally appended as JSONL to -slow-query-log and warned
// about through the request logger at a rate-limited cadence (see
// docs/OBSERVABILITY.md).
//
// The daemon drains in-flight evaluations on SIGINT/SIGTERM and then
// syncs and closes its named databases. With
// -ops-addr it runs a second listener carrying GET /metrics
// (Prometheus text) and net/http/pprof under /debug/pprof/ — kept off
// the service port so profiling endpoints are never exposed to
// evaluation clients. -log selects structured request logging (text,
// json, or off; see docs/OBSERVABILITY.md). The -selftest flag boots
// the server on a loopback port, fires a health check, one
// terminating evaluation, one sharded evaluation, one
// deadline-bounded non-terminating evaluation, a traced evaluation,
// a /v1/status probe, a /metrics scrape, a /debug/flight probe, a
// standing query, a /v1/analyze shed by a saturated admission gate,
// and a durable database reopened after a clean shutdown, then exits
// — the smoke test used by "make serve-smoke".
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"unchained/internal/queries"
	"unchained/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, w, ew io.Writer) int {
	fs := flag.NewFlagSet("unchained-serve", flag.ContinueOnError)
	fs.SetOutput(ew)
	addr := fs.String("addr", ":8344", "listen address")
	shards := fs.Int("shards", 8, "maximum per-request data-parallel shards")
	cache := fs.Int("cache", 128, "parsed-program LRU cache capacity")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request evaluation timeout")
	maxTimeout := fs.Duration("max-timeout", 5*time.Minute, "upper clamp for per-request timeout_ms")
	maxInFlight := fs.Int("max-inflight", 64, "concurrently evaluating requests before queuing (negative disables admission control)")
	queueDepth := fs.Int("queue-depth", 128, "admission queue capacity; arrivals beyond it are shed with 429")
	queueWait := fs.Duration("queue-wait", time.Second, "per-request admission queue wait budget (503 on expiry)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
	opsAddr := fs.String("ops-addr", "", "optional ops listener for /metrics and /debug/pprof/ (e.g. 127.0.0.1:8345)")
	logMode := fs.String("log", "text", "request logging: text, json, or off")
	slowQueryMS := fs.Int("slow-query-ms", 1000, "wall-time threshold marking a request a slow query (0 disables slow-query handling)")
	slowQueryLog := fs.String("slow-query-log", "", "append slow-query flight records as JSONL to this file")
	flightRing := fs.Int("flight-ring", 0, "flight-recorder recent-records ring size (0 = default 256)")
	flightTopK := fs.Int("flight-topk", 0, "flight-recorder slowest-records heap size (0 = default 32)")
	maxTenants := fs.Int("max-tenants", 0, "distinct program digests tracked in per-tenant metrics before folding into \"other\" (0 = default 32)")
	dataDir := fs.String("data-dir", "", "directory for durable named databases (empty = in-memory)")
	subBuffer := fs.Int("sub-buffer", 0, "committed batches one subscription may buffer before being cut off (0 = default 64)")
	maxDBs := fs.Int("max-dbs", 0, "maximum open named databases (0 = default 64)")
	selftest := fs.Bool("selftest", false, "boot on a loopback port, run a smoke sequence, exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var logger *slog.Logger
	switch *logMode {
	case "text":
		logger = slog.New(slog.NewTextHandler(ew, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(ew, nil))
	case "off":
	default:
		fmt.Fprintf(ew, "unchained-serve: -log must be text, json, or off (got %q)\n", *logMode)
		return 2
	}

	cfg := serve.Config{
		MaxShards:      *shards,
		CacheSize:      *cache,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxInFlight:    *maxInFlight,
		QueueDepth:     *queueDepth,
		QueueWait:      *queueWait,
		Logger:         logger,
		SlowQuery:      time.Duration(*slowQueryMS) * time.Millisecond,
		FlightRing:     *flightRing,
		FlightTopK:     *flightTopK,
		MaxTenants:     *maxTenants,
		DataDir:        *dataDir,
		SubBuffer:      *subBuffer,
		MaxDBs:         *maxDBs,
	}
	if *slowQueryLog != "" {
		f, err := os.OpenFile(*slowQueryLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(ew, "unchained-serve: -slow-query-log: %v\n", err)
			return 1
		}
		defer f.Close()
		cfg.SlowQueryLog = f
	}

	if *selftest {
		if err := runSelftest(cfg, w); err != nil {
			fmt.Fprintf(ew, "selftest: %v\n", err)
			return 1
		}
		fmt.Fprintln(w, "selftest: ok")
		return 0
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(ew, "unchained-serve: %v\n", err)
		return 1
	}
	service := serve.New(cfg)
	// Connection-level backpressure: slow or stalled clients cannot
	// pin a connection's goroutine forever — headers must arrive
	// promptly, idle keep-alives are reaped, and oversized headers are
	// rejected before the handler runs. Evaluation time is governed by
	// the per-request deadline, not these.
	srv := &http.Server{
		Handler:           service,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 16,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(w, "unchained-serve: listening on %s\n", ln.Addr())

	var opsSrv *http.Server
	if *opsAddr != "" {
		opsLn, err := net.Listen("tcp", *opsAddr)
		if err != nil {
			fmt.Fprintf(ew, "unchained-serve: ops listener: %v\n", err)
			return 1
		}
		opsSrv = &http.Server{Handler: opsMux(service)}
		go opsSrv.Serve(opsLn)
		fmt.Fprintf(w, "unchained-serve: ops (metrics+pprof) on %s\n", opsLn.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintf(ew, "unchained-serve: %v\n", err)
		return 1
	case sig := <-sigc:
		fmt.Fprintf(w, "unchained-serve: %v, draining for up to %v\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Shutdown stops accepting and waits for in-flight handlers;
		// per-request contexts keep their own deadlines, so draining
		// cannot hang past the window.
		err := srv.Shutdown(ctx)
		if opsSrv != nil {
			opsSrv.Shutdown(ctx)
		}
		// Sync and close the named databases whether or not the drain
		// finished: a handler still running sees its store closed.
		if cerr := service.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(ew, "unchained-serve: drain: %v\n", err)
			return 1
		}
	}
	return 0
}

// opsMux builds the operational mux: Prometheus metrics plus the
// net/http/pprof handlers. Registered explicitly (not via the pprof
// package's init side effect on http.DefaultServeMux) so the profiling
// surface exists only when -ops-addr is set.
func opsMux(service *serve.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", service.MetricsHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// loopback boots a daemon on a loopback port. stop drains it and
// closes its named databases, reporting the first error.
func loopback(cfg serve.Config) (base string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	service := serve.New(cfg)
	srv := &http.Server{Handler: service}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if cerr := service.Close(); err == nil {
			err = cerr
		}
		return err
	}, nil
}

// exchange is one round trip with a loopback daemon: POST req as JSON
// (GET when req is nil) and decode the JSON answer into `into` unless
// that is nil. The raw body comes back too, for error messages.
func exchange(url string, req, into any) (status int, hdr http.Header, body []byte, err error) {
	var resp *http.Response
	if req == nil {
		resp, err = http.Get(url)
	} else {
		var b []byte
		if b, err = json.Marshal(req); err == nil {
			resp, err = http.Post(url, "application/json", bytes.NewReader(b))
		}
	}
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	if body, err = io.ReadAll(resp.Body); err == nil && into != nil {
		if err = json.Unmarshal(body, into); err != nil {
			err = fmt.Errorf("%w (body %s)", err, body)
		}
	}
	return resp.StatusCode, resp.Header, body, err
}

// tcProgram is the transitive-closure program the smoke steps evaluate.
const tcProgram = "T(X,Y) :- G(X,Y).\nT(X,Y) :- G(X,Z), T(Z,Y)."

// runSelftest boots the daemon on a loopback port and exercises the
// endpoints end to end: /healthz, a terminating eval, a deadline-
// bounded non-terminating eval (must report code "deadline" with
// partial stages), /statsz, a standing query, /v1/analyze against a
// saturated gate, and a durable database across a clean restart.
func runSelftest(cfg serve.Config, w io.Writer) (err error) {
	base, stop, err := loopback(cfg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := stop(); err == nil {
			err = cerr
		}
	}()

	// 1. Health.
	status, _, body, err := exchange(base+"/healthz", nil, nil)
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if status != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		return fmt.Errorf("healthz: status %d body %s", status, body)
	}
	fmt.Fprintf(w, "selftest: healthz ok\n")

	// 2. A terminating evaluation.
	tc := serve.EvalRequest{
		Envelope:  serve.Envelope{Program: tcProgram, Facts: "G(a,b). G(b,c).", Stats: true},
		Semantics: "minimal-model",
	}
	status, _, body, err = exchange(base+"/v1/eval", tc, nil)
	if err != nil {
		return fmt.Errorf("eval: %w", err)
	}
	if status != http.StatusOK || !strings.Contains(string(body), "T(a,c)") {
		return fmt.Errorf("eval: status %d body %s", status, body)
	}
	fmt.Fprintf(w, "selftest: eval ok\n")

	// 2b. The same evaluation shard-parallel: the output must be
	// byte-identical and the stats summary must report shard rounds.
	var sharded serve.EvalResponse
	tc.Shards = 4
	if status, _, body, err = exchange(base+"/v1/eval", tc, &sharded); err != nil {
		return fmt.Errorf("sharded eval: %w", err)
	}
	if status != http.StatusOK || !strings.Contains(sharded.Output, "T(a,c)") ||
		sharded.Stats == nil || sharded.Stats.ShardRounds == 0 {
		return fmt.Errorf("sharded eval: status %d body %s", status, body)
	}
	fmt.Fprintf(w, "selftest: sharded eval ok (%d shard rounds)\n", sharded.Stats.ShardRounds)

	// 3. A non-terminating evaluation under a 100ms deadline.
	start := time.Now()
	var evalResp serve.EvalResponse
	status, _, body, err = exchange(base+"/v1/eval", serve.EvalRequest{
		Envelope:  serve.Envelope{Program: queries.Counter(30), TimeoutMS: 100, Stats: true},
		Semantics: "noninflationary",
	}, &evalResp)
	if err != nil {
		return fmt.Errorf("timeout eval: %w", err)
	}
	if status != http.StatusRequestTimeout || evalResp.Error == nil ||
		evalResp.Error.Code != serve.CodeDeadline || evalResp.Stages == 0 {
		return fmt.Errorf("timeout eval: status %d body %s", status, body)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		return fmt.Errorf("timeout eval took %v", elapsed)
	}
	fmt.Fprintf(w, "selftest: deadline eval interrupted after %d stages\n", evalResp.Stages)

	// 4. A traced evaluation: the span stream must come back in the
	// response, opening with a begin-eval event.
	var traced serve.EvalResponse
	tc.Shards, tc.Stats, tc.Trace = 0, false, true
	if status, _, _, err = exchange(base+"/v1/eval", tc, &traced); err != nil {
		return fmt.Errorf("trace eval: %w", err)
	}
	if status != http.StatusOK || len(traced.Trace) == 0 ||
		traced.Trace[0].Ev != "begin" || traced.Trace[0].Span != "eval" {
		return fmt.Errorf("trace eval: status %d, %d events", status, len(traced.Trace))
	}
	fmt.Fprintf(w, "selftest: trace eval ok (%d events)\n", len(traced.Trace))

	// 4b. Service status: build identity, semantics, and limits.
	var stat serve.StatusResponse
	if _, _, body, err = exchange(base+"/v1/status", nil, &stat); err != nil {
		return fmt.Errorf("status: %w", err)
	}
	if stat.Service != "unchained-serve" || len(stat.Semantics) == 0 ||
		stat.Limits.MaxShards < 1 || stat.Limits.MaxInFlight == 0 {
		return fmt.Errorf("status payload off: %s", body)
	}
	fmt.Fprintf(w, "selftest: status ok (max_shards=%d max_in_flight=%d)\n",
		stat.Limits.MaxShards, stat.Limits.MaxInFlight)

	// 5. Service counters.
	var st serve.Statsz
	_, hdr, body, err := exchange(base+"/statsz", nil, &st)
	if err != nil {
		return fmt.Errorf("statsz: %w", err)
	}
	if rid := hdr.Get("X-Request-Id"); len(rid) != 32 || strings.Trim(rid, "0123456789abcdef") != "" {
		return fmt.Errorf("statsz: X-Request-Id = %q, want 32-hex trace id", rid)
	}
	if st.EvalsOK < 2 || st.Timeouts < 1 {
		return fmt.Errorf("statsz counters off: %s", body)
	}
	fmt.Fprintf(w, "selftest: statsz ok (evals_ok=%d timeouts=%d)\n", st.EvalsOK, st.Timeouts)

	// 6. Prometheus exposition.
	if _, _, body, err = exchange(base+"/metrics", nil, nil); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for _, want := range []string{
		"# TYPE unchained_requests_total counter",
		"unchained_evals_ok_total",
		"unchained_request_duration_seconds_bucket{le=",
	} {
		if !strings.Contains(string(body), want) {
			return fmt.Errorf("metrics exposition missing %q", want)
		}
	}
	fmt.Fprintf(w, "selftest: metrics ok\n")

	// 7. Flight recorder: the evaluations above must have left records,
	// and the deadline-bounded one must be among the slowest with its
	// stage breakdown intact.
	var flightPage struct {
		Total   uint64            `json:"total"`
		Records []json.RawMessage `json:"records"`
	}
	if _, _, body, err = exchange(base+"/debug/flight/slowest", nil, &flightPage); err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	if flightPage.Total < 4 || len(flightPage.Records) == 0 {
		return fmt.Errorf("flight recorder empty: %s", body)
	}
	if !bytes.Contains(body, []byte(`"outcome":"deadline"`)) {
		return fmt.Errorf("deadline eval missing from slowest: %s", body)
	}
	if !bytes.Contains(body, []byte(`"per_stage"`)) {
		return fmt.Errorf("flight records carry no stage breakdown: %s", body)
	}
	fmt.Fprintf(w, "selftest: flight recorder ok (%d records)\n", flightPage.Total)

	// 8. Standing queries end to end: seed a named database, subscribe
	// to transitive closure over it, then assert a new edge and observe
	// the incremental delta arrive on the stream.
	var fr serve.FactsResponse
	status, _, body, err = exchange(base+"/v1/facts", serve.FactsRequest{DB: "selftest", Assert: "G(a,b)."}, &fr)
	if err != nil {
		return fmt.Errorf("facts: %w", err)
	}
	if status != http.StatusOK || !fr.OK || fr.Seq != 1 || fr.Asserted != 1 {
		return fmt.Errorf("facts: status %d body %s", status, body)
	}
	fmt.Fprintf(w, "selftest: facts ok (seq=%d)\n", fr.Seq)

	subBody, err := json.Marshal(serve.SubscribeRequest{DB: "selftest", Program: tcProgram})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/subscribe", "application/json", bytes.NewReader(subBody))
	if err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("subscribe: status %d body %s", resp.StatusCode, body)
	}
	events := make(chan string, 8)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		var ev string
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "event: ") {
				ev = strings.TrimPrefix(line, "event: ")
			} else if strings.HasPrefix(line, "data: ") {
				events <- ev + " " + strings.TrimPrefix(line, "data: ")
			}
		}
	}()
	waitEvent := func(stage, want string) (string, error) {
		select {
		case got, ok := <-events:
			if !ok || !strings.HasPrefix(got, want+" ") {
				return "", fmt.Errorf("%s: got %q, want %q event", stage, got, want)
			}
			return got, nil
		case <-time.After(10 * time.Second):
			return "", fmt.Errorf("%s: no %q event within 10s", stage, want)
		}
	}
	snap, err := waitEvent("subscribe", "snapshot")
	if err != nil {
		return err
	}
	if !strings.Contains(snap, "T(a,b)") {
		return fmt.Errorf("subscribe snapshot missing seed view: %s", snap)
	}
	if _, _, _, err := exchange(base+"/v1/facts", serve.FactsRequest{DB: "selftest", Assert: "G(b,c)."}, nil); err != nil {
		return fmt.Errorf("facts during subscribe: %w", err)
	}
	delta, err := waitEvent("delta", "delta")
	if err != nil {
		return err
	}
	if !strings.Contains(delta, "T(a,c)") || !strings.Contains(delta, "T(b,c)") {
		return fmt.Errorf("subscribe delta missing derived facts: %s", delta)
	}
	fmt.Fprintf(w, "selftest: subscribe ok (snapshot + incremental delta)\n")

	if err := selftestSaturatedAnalyze(cfg); err != nil {
		return fmt.Errorf("analyze under saturation: %w", err)
	}
	fmt.Fprintf(w, "selftest: analyze shed at a full queue (429 + Retry-After)\n")
	if err := selftestRestart(cfg); err != nil {
		return fmt.Errorf("close and reopen: %w", err)
	}
	fmt.Fprintf(w, "selftest: database survived a clean restart (no WAL truncation)\n")
	return nil
}

// selftestSaturatedAnalyze checks that /v1/analyze passes the
// admission gate like every other /v1 POST: with the only slot held by
// a non-terminating evaluation and the only queue place taken, it is
// shed with 429, a Retry-After hint and the request id in the body.
func selftestSaturatedAnalyze(cfg serve.Config) error {
	cfg.MaxInFlight, cfg.QueueDepth, cfg.QueueWait = 1, 1, 5*time.Second
	base, stop, err := loopback(cfg)
	if err != nil {
		return err
	}
	defer stop()
	// One holds the slot, one the queue place; each answers 408 at its
	// deadline, which is what ends this step.
	slow := serve.EvalRequest{
		Envelope:  serve.Envelope{Program: queries.Counter(30), TimeoutMS: 600},
		Semantics: "noninflationary",
	}
	done := make(chan error, 2)
	for _, reached := range []func(serve.Statsz) bool{
		func(st serve.Statsz) bool { return st.Admitted == 1 },   // the slot is held
		func(st serve.Statsz) bool { return st.QueueDepth == 1 }, // the queue is full
	} {
		go func() {
			_, _, _, err := exchange(base+"/v1/eval", slow, nil)
			done <- err
		}()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			var st serve.Statsz
			if _, _, _, err := exchange(base+"/statsz", nil, &st); err != nil {
				return err
			}
			if reached(st) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("the daemon never saturated: %+v", st)
			}
		}
	}
	var out serve.AnalyzeResponse
	status, hdr, body, err := exchange(base+"/v1/analyze", serve.AnalyzeRequest{
		Envelope: serve.Envelope{Program: "Win(X) :- Moves(X,Y), !Win(Y)."},
	}, &out)
	if err != nil {
		return err
	}
	if status != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" || out.Error == nil ||
		out.Error.Code != serve.CodeOverloaded || out.Error.Details["request_id"] != hdr.Get("X-Request-Id") {
		return fmt.Errorf("status %d Retry-After %q body %s", status, hdr.Get("Retry-After"), body)
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			return err
		}
	}
	return nil
}

// selftestRestart asserts a fact into a durable database, shuts the
// daemon down cleanly, boots a second one over the same directory and
// checks that the fact is there and that recovery had no torn WAL tail
// to truncate.
func selftestRestart(cfg serve.Config) error {
	dir, err := os.MkdirTemp("", "unchained-selftest-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.DataDir = dir
	boot := func(wantAsserted int) (err error) {
		base, stop, err := loopback(cfg)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := stop(); err == nil {
				err = cerr
			}
		}()
		var fr serve.FactsResponse
		status, _, body, err := exchange(base+"/v1/facts", serve.FactsRequest{DB: "restart", Assert: "G(a,b)."}, &fr)
		if err != nil {
			return err
		}
		var st serve.Statsz
		if _, _, _, err := exchange(base+"/statsz", nil, &st); err != nil {
			return err
		}
		if status != http.StatusOK || fr.Seq != 1 || fr.Asserted != wantAsserted || st.WALTruncations != 0 {
			return fmt.Errorf("status %d body %s, %d WAL truncations", status, body, st.WALTruncations)
		}
		return nil
	}
	if err := boot(1); err != nil {
		return fmt.Errorf("first boot: %w", err)
	}
	if err := boot(0); err != nil { // the fact is already there
		return fmt.Errorf("second boot: %w", err)
	}
	return nil
}
