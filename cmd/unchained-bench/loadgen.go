// Loadgen mode (-serve): boots the evaluation daemon in-process on a
// loopback port, fires a fixed burst of concurrent clients across
// several tenant programs, and reports throughput, latency quantiles,
// and the admission-control outcome mix. The acceptance shape for
// "make serve-load": shedding happens (429s carry Retry-After), the
// p99 stays bounded by the queue-wait budget plus service time, and
// the daemon never returns an internal error (5xx other than the
// advertised 503 queue-timeout).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"unchained/internal/serve"
)

// loadgenConfig is the -serve mode's knob set, wired from flags.
type loadgenConfig struct {
	duration   time.Duration
	clients    int
	inFlight   int
	queueDepth int
	queueWait  time.Duration
	tenants    int
}

// tenantProgram builds tenant i's program and facts: a small
// transitive closure over a chain, with per-tenant relation names so
// every tenant hashes to its own parse-cache entry (the admission
// gate's fair-queuing key).
func tenantProgram(i, chain int) (prog, facts string) {
	var p, f bytes.Buffer
	fmt.Fprintf(&p, "T%d(X,Y) :- G%d(X,Y).\nT%d(X,Y) :- G%d(X,Z), T%d(Z,Y).\n", i, i, i, i, i)
	for j := 0; j+1 < chain; j++ {
		fmt.Fprintf(&f, "G%d(n%d,n%d). ", i, j, j+1)
	}
	return p.String(), f.String()
}

// runLoadgen executes the burst and prints the report. It returns an
// error when the daemon misbehaves (internal 5xx, no shedding under
// pressure, counter mismatch), making it usable as a CI smoke job.
func runLoadgen(w io.Writer, cfg loadgenConfig) error {
	srvCfg := serve.Config{
		MaxInFlight: cfg.inFlight,
		QueueDepth:  cfg.queueDepth,
		QueueWait:   cfg.queueWait,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: serve.New(srvCfg)}
	go httpSrv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: cfg.queueWait + 30*time.Second}

	type sample struct {
		status int
		lat    time.Duration
		retry  bool // Retry-After header present
	}
	var mu sync.Mutex
	var samples []sample

	deadline := time.Now().Add(cfg.duration)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prog, facts := tenantProgram(c%cfg.tenants, 48)
			body, _ := json.Marshal(serve.EvalRequest{
				Envelope:  serve.Envelope{Program: prog, Facts: facts, Shards: 2},
				Semantics: "minimal-model",
			})
			for time.Now().Before(deadline) {
				begin := time.Now()
				resp, err := client.Post(base+"/v1/eval", "application/json", bytes.NewReader(body))
				lat := time.Since(begin)
				if err != nil {
					mu.Lock()
					samples = append(samples, sample{status: -1, lat: lat})
					mu.Unlock()
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				samples = append(samples, sample{
					status: resp.StatusCode,
					lat:    lat,
					retry:  resp.Header.Get("Retry-After") != "",
				})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	// Aggregate.
	byStatus := map[int]int{}
	lats := make([]time.Duration, 0, len(samples))
	sheddedWithoutHint := 0
	for _, s := range samples {
		byStatus[s.status]++
		lats = append(lats, s.lat)
		if (s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable) && !s.retry {
			sheddedWithoutHint++
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	qps := float64(len(samples)) / cfg.duration.Seconds()
	fmt.Fprintf(w, "loadgen: %d requests in %v (%.0f req/s), %d clients x %d tenants\n",
		len(samples), cfg.duration, qps, cfg.clients, cfg.tenants)
	fmt.Fprintf(w, "loadgen: p50 %v  p95 %v  p99 %v  max %v\n",
		pct(0.50).Round(time.Millisecond), pct(0.95).Round(time.Millisecond),
		pct(0.99).Round(time.Millisecond), pct(1.0).Round(time.Millisecond))
	statuses := make([]int, 0, len(byStatus))
	for st := range byStatus {
		statuses = append(statuses, st)
	}
	sort.Ints(statuses)
	for _, st := range statuses {
		label := "transport error"
		if st > 0 {
			label = http.StatusText(st)
		}
		fmt.Fprintf(w, "loadgen: status %4d %-22s %d\n", st, label, byStatus[st])
	}

	// Cross-check the daemon's own counters against what we observed.
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		return fmt.Errorf("statsz: %w", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st serve.Statsz
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("statsz: %w", err)
	}
	fmt.Fprintf(w, "loadgen: daemon counters admitted=%d queued=%d shed=%d queue_timeouts=%d\n",
		st.Admitted, st.Queued, st.Shed, st.QueueTimeouts)

	// Acceptance.
	for _, s := range statuses {
		if s >= 500 && s != http.StatusServiceUnavailable {
			return fmt.Errorf("internal server error: %d x%d", s, byStatus[s])
		}
	}
	if byStatus[-1] > 0 {
		return fmt.Errorf("%d transport errors", byStatus[-1])
	}
	if sheddedWithoutHint > 0 {
		return fmt.Errorf("%d shed responses missing Retry-After", sheddedWithoutHint)
	}
	shed := byStatus[http.StatusTooManyRequests]
	if uint64(shed) != st.Shed {
		return fmt.Errorf("shed counter mismatch: observed %d 429s, daemon counted %d", shed, st.Shed)
	}
	if dropped := byStatus[http.StatusServiceUnavailable]; uint64(dropped) != st.QueueTimeouts {
		return fmt.Errorf("queue-timeout mismatch: observed %d 503s, daemon counted %d", dropped, st.QueueTimeouts)
	}
	// Under a burst of clients >> in-flight slots + queue depth, the
	// gate must shed; if it never does, admission control is broken.
	if cfg.clients > cfg.inFlight+cfg.queueDepth && shed == 0 && st.QueueTimeouts == 0 {
		return fmt.Errorf("no shedding under %d clients vs %d slots + %d queue", cfg.clients, cfg.inFlight, cfg.queueDepth)
	}
	// Bounded tail: nothing should wait past the queue budget plus a
	// generous service allowance.
	if bound := cfg.queueWait + 20*time.Second; pct(0.99) > bound {
		return fmt.Errorf("p99 %v above bound %v", pct(0.99), bound)
	}
	fmt.Fprintf(w, "loadgen: ok\n")
	return nil
}
