// Command unchained-serve is the long-lived HTTP/JSON evaluation
// daemon: it parses, caches, and evaluates programs of the Datalog
// family concurrently, with per-request deadlines that interrupt even
// non-terminating programs cleanly (see internal/serve and
// docs/API.md).
//
// Usage:
//
//	unchained-serve [flags]
//
// `unchained-serve -h` lists the flags with their defaults, which are
// serve.DefaultConfig's and the flight recorder's.
//
// -max-inflight bounds concurrently evaluating requests; excess
// requests queue (fairly across programs, -queue-depth total, each
// waiting at most -queue-wait) and are shed with 429/503 +
// Retry-After beyond that (see docs/API.md, "Admission control").
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
// json, or off; see docs/OBSERVABILITY.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"unchained/internal/flight"
	"unchained/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, w, ew io.Writer) int {
	fs := flag.NewFlagSet("unchained-serve", flag.ContinueOnError)
	fs.SetOutput(ew)
	def := serve.DefaultConfig()
	addr := fs.String("addr", ":8344", "listen address")
	cache := fs.Int("cache", def.CacheSize, "parsed-program LRU cache capacity")
	timeout := fs.Duration("timeout", def.DefaultTimeout, "default per-request evaluation timeout")
	maxTimeout := fs.Duration("max-timeout", def.MaxTimeout, "upper clamp for per-request timeout_ms")
	maxInFlight := fs.Int("max-inflight", def.MaxInFlight, "concurrently evaluating requests before queuing (negative disables admission control)")
	queueDepth := fs.Int("queue-depth", def.QueueDepth, "admission queue capacity; arrivals beyond it are shed with 429")
	queueWait := fs.Duration("queue-wait", def.QueueWait, "per-request admission queue wait budget (503 on expiry)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
	opsAddr := fs.String("ops-addr", "", "optional ops listener for /metrics and /debug/pprof/ (e.g. 127.0.0.1:8345)")
	logMode := fs.String("log", "text", "request logging: text, json, or off")
	slowQueryMS := fs.Int("slow-query-ms", 1000, "wall-time threshold marking a request a slow query (0 disables slow-query handling)")
	slowQueryLog := fs.String("slow-query-log", "", "append slow-query flight records as JSONL to this file")
	flightRing := fs.Int("flight-ring", flight.DefaultRingSize, "flight-recorder recent-records ring size")
	flightTopK := fs.Int("flight-topk", flight.DefaultTopK, "flight-recorder slowest-records heap size")
	maxTenants := fs.Int("max-tenants", flight.DefaultMaxTenants, "distinct program digests tracked in per-tenant metrics before folding into \"other\"")
	dataDir := fs.String("data-dir", "", "directory for durable named databases (empty = in-memory)")
	subBuffer := fs.Int("sub-buffer", def.SubBuffer, "committed batches one subscription may buffer before being cut off")
	maxDBs := fs.Int("max-dbs", def.MaxDBs, "maximum open named databases")
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

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(ew, "unchained-serve: %v\n", err)
		return 1
	}
	service := serve.New(cfg)
	// Whichever way run ends, the named databases are synced and
	// closed. The shutdown branch closes them itself to report the
	// error; closing again is a no-op.
	defer service.Close()
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
