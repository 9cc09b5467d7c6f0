package main

import (
	"bytes"
	"encoding/json"
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

	"unchained/internal/serve"
)

// TestSelftest boots the daemon on a loopback port and runs the full
// smoke sequence (healthz, eval, deadline-bounded eval, statsz).
func TestSelftest(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-selftest", "-timeout", "5s"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	for _, want := range []string{"healthz ok", "eval ok", "deadline eval interrupted",
		"analyze shed at a full queue", "survived a clean restart", "selftest: ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in output:\n%s", want, out.String())
		}
	}
}

func TestBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
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

// TestShutdownClosesStores: a graceful shutdown syncs and closes the
// named databases. A fact asserted before SIGTERM is there after the
// next boot with no WAL tail to truncate, and the first daemon leaves
// no file under the data directory open.
func TestShutdownClosesStores(t *testing.T) {
	// Keep SIGTERM away from its default action for the whole test
	// process, whatever instant run installs its own handler.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM)
	defer signal.Stop(sigs)

	dir := t.TempDir()
	listening := regexp.MustCompile(`listening on (\S+)`)
	for boot, wantAsserted := range []int{1, 0} { // the second boot finds the fact already there
		out := &syncBuffer{}
		exit := make(chan int, 1)
		go func() { exit <- run([]string{"-addr", "127.0.0.1:0", "-data-dir", dir, "-log", "off"}, out, out) }()
		var base string
		for deadline := time.Now().Add(10 * time.Second); base == ""; time.Sleep(5 * time.Millisecond) {
			if m := listening.FindStringSubmatch(out.String()); m != nil {
				base = "http://" + m[1]
			} else if time.Now().After(deadline) {
				t.Fatalf("boot %d never listened: %s", boot+1, out.String())
			}
		}
		body, _ := json.Marshal(serve.FactsRequest{DB: "dur", Assert: "G(a,b)."})
		resp, err := http.Post(base+"/v1/facts", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var fr serve.FactsResponse
		err = json.NewDecoder(resp.Body).Decode(&fr)
		resp.Body.Close()
		if err != nil || !fr.OK || fr.Seq != 1 || fr.Asserted != wantAsserted {
			t.Fatalf("boot %d: facts %+v (%v), want seq 1 asserted %d", boot+1, fr, err, wantAsserted)
		}
		resp, err = http.Get(base + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		var st serve.Statsz
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || st.StoreDBs != 1 || st.WALTruncations != 0 {
			t.Fatalf("boot %d: store_dbs=%d store_wal_truncations=%d (%v)", boot+1, st.StoreDBs, st.WALTruncations, err)
		}
		http.DefaultClient.CloseIdleConnections()

		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case code := <-exit:
			if code != 0 {
				t.Fatalf("boot %d: exit %d: %s", boot+1, code, out.String())
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("boot %d did not shut down: %s", boot+1, out.String())
		}
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			continue // no /proc: the second boot's answers are the check
		}
		for _, fd := range fds {
			if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); strings.HasPrefix(target, dir) {
				t.Errorf("boot %d left %s open after shutdown", boot+1, target)
			}
		}
	}
}
