package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"unchained/internal/queries"
	"unchained/internal/serve"
)

// TestBadFlag: a flag the daemon cannot parse exits 2, one naming a
// file or an address it cannot open exits 1, each saying what was wrong.
func TestBadFlag(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		want string // in stderr
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-log", "nonsense"}, 2, `-log must be text, json, or off (got "nonsense")`},
		{[]string{"-slow-query-log", t.TempDir()}, 1, "-slow-query-log:"},
		{[]string{"-addr", "no-port"}, 1, "missing port"},
		{[]string{"-addr", "127.0.0.1:0", "-ops-addr", "no-port"}, 1, "ops listener:"},
	} {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != c.code || !strings.Contains(errb.String(), c.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d naming %q", c.args, code, errb.String(), c.code, c.want)
		}
	}
}

// syncBuffer is run's stdout, read while run is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one run of the real entry point: its own listeners, its
// own signal handler, its own shutdown.
type daemon struct {
	out  *syncBuffer // stdout and stderr
	exit chan int
	base string // http://host:port of the service listener
}

// boot starts run on a loopback port with the extra flags and returns
// once it prints its "listening on" line.
func boot(t *testing.T, args ...string) *daemon {
	t.Helper()
	// Keep SIGTERM away from its default action for the whole test
	// process, whatever instant run installs its own handler.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM)
	t.Cleanup(func() { signal.Stop(sigs) })

	d := &daemon{out: &syncBuffer{}, exit: make(chan int, 1)}
	args = append([]string{"-addr", "127.0.0.1:0", "-log", "off"}, args...)
	go func() { d.exit <- run(args, d.out, d.out) }()
	d.base = "http://" + d.waitLine(t, `listening on (\S+)`)
	return d
}

// waitLine waits for run to print a line matching re and returns its
// first submatch.
func (d *daemon) waitLine(t *testing.T, re string) string {
	t.Helper()
	line := regexp.MustCompile(re)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if m := line.FindStringSubmatch(d.out.String()); m != nil {
			return m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never printed %q: %s", re, d.out.String())
		}
	}
}

// stop sends the process SIGTERM and waits for run to drain and
// return 0.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	http.DefaultClient.CloseIdleConnections()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-d.exit:
		if code != 0 {
			t.Fatalf("exit %d: %s", code, d.out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("run did not shut down: %s", d.out.String())
	}
}

// exchange is one round trip: POST req as JSON (GET when req is nil),
// the answer decoded into `into` unless that is nil.
func exchange(t *testing.T, url string, req, into any) (int, []byte) {
	t.Helper()
	var resp *http.Response
	var err error
	if req == nil {
		resp, err = http.Get(url)
	} else {
		b, _ := json.Marshal(req)
		resp, err = http.Post(url, "application/json", bytes.NewReader(b))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if into != nil {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("%s: %v (body %s)", url, err, body)
		}
	}
	return resp.StatusCode, body
}

// TestShutdownClosesStores: a graceful shutdown syncs and closes the
// named databases. A fact asserted before SIGTERM is there after the
// next boot with no WAL tail to truncate, and the first daemon leaves
// no file under the data directory open.
func TestShutdownClosesStores(t *testing.T) {
	dir := t.TempDir()
	for n, wantAsserted := range []int{1, 0} { // the second boot finds the fact already there
		d := boot(t, "-data-dir", dir)
		var fr serve.FactsResponse
		exchange(t, d.base+"/v1/facts", serve.FactsRequest{DB: "dur", Assert: "G(a,b)."}, &fr)
		if !fr.OK || fr.Seq != 1 || fr.Asserted != wantAsserted {
			t.Fatalf("boot %d: facts %+v, want seq 1 asserted %d", n+1, fr, wantAsserted)
		}
		var st map[string]int64
		exchange(t, d.base+"/statsz", nil, &st)
		if st["store_dbs"] != 1 || st["store_wal_truncations"] != 0 {
			t.Fatalf("boot %d: store_dbs=%d store_wal_truncations=%d", n+1, st["store_dbs"], st["store_wal_truncations"])
		}
		d.stop(t)
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			continue // no /proc: the second boot's answers are the check
		}
		for _, fd := range fds {
			if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); strings.HasPrefix(target, dir) {
				t.Errorf("boot %d left %s open after shutdown", n+1, target)
			}
		}
	}
}

// TestOpsListener: -ops-addr serves /metrics and the pprof index on a
// second port, and the service port serves no profiling endpoint.
func TestOpsListener(t *testing.T) {
	d := boot(t, "-ops-addr", "127.0.0.1:0", "-log", "json")
	defer d.stop(t)
	ops := "http://" + d.waitLine(t, `ops \(metrics\+pprof\) on (\S+)`)
	for _, c := range []struct {
		url    string
		status int
		want   string
	}{
		{ops + "/metrics", http.StatusOK, "# TYPE unchained_requests_total counter"},
		{ops + "/debug/pprof/", http.StatusOK, "goroutine"},
		{d.base + "/debug/pprof/", http.StatusNotFound, ""},
	} {
		if status, body := exchange(t, c.url, nil, nil); status != c.status || !strings.Contains(string(body), c.want) {
			t.Errorf("GET %s: status %d, want %d with %q in the body: %.200s", c.url, status, c.status, c.want, body)
		}
	}
}

// TestSlowQueryLog: with -slow-query-ms and -slow-query-log, a request
// over the threshold leaves its flight record in the file as one JSON
// line.
func TestSlowQueryLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slow.jsonl")
	d := boot(t, "-slow-query-ms", "1", "-slow-query-log", path)
	status, body := exchange(t, d.base+"/v1/eval", serve.EvalRequest{
		Envelope:  serve.Envelope{Program: queries.Counter(30), TimeoutMS: 50},
		Semantics: "noninflationary",
	}, nil)
	if status != http.StatusRequestTimeout {
		t.Fatalf("status %d, want 408: %s", status, body)
	}
	d.stop(t)
	logged, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(logged)), "\n")
	var rec struct {
		Outcome string `json:"outcome"`
	}
	if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &rec) != nil || rec.Outcome != serve.CodeDeadline {
		t.Fatalf("slow-query log holds %d lines, want one record with outcome %q:\n%s", len(lines), serve.CodeDeadline, logged)
	}
}
