package store_test

// Crash-recovery soak: the committed prefix of a WAL store must be
// exactly recoverable no matter where the process dies.
//
// Two harnesses share one deterministic workload (soakBatch, a pure
// function of seed and step):
//
//   - TestWALKillPointSoak places >= 50 randomized in-process kill
//     points with Options.FailAfterBytes, including mid-record ones,
//     and checks the reopened state equals the last acknowledged
//     batch's state.
//   - TestWALSIGKILLSoak re-execs the test binary as a child that
//     appends batches and prints the sequence number after each fsync
//     ack; the parent SIGKILLs it at a random moment, reopens the
//     directory, and checks the recovered state matches the committed
//     prefix and includes every batch the parent saw acknowledged.
//
// `make race` runs both under -race.

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"unchained/internal/store"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// soakBatch is the deterministic workload: the i-th batch under a
// seed, mixing asserts and retracts over a small constant pool so
// retracts regularly hit existing facts.
func soakBatch(u *value.Universe, seed int64, i int) store.Batch {
	rng := rand.New(rand.NewSource(seed<<20 | int64(i)))
	pool := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	mk := func() store.Fact {
		if rng.Intn(4) == 0 {
			return store.Fact{Pred: "num", Tuple: tuple.Tuple{u.Int(int64(rng.Intn(6)))}}
		}
		return store.Fact{Pred: "edge", Tuple: tuple.Tuple{
			u.Sym(pool[rng.Intn(len(pool))]), u.Sym(pool[rng.Intn(len(pool))]),
		}}
	}
	var b store.Batch
	for n := rng.Intn(3) + 1; n > 0; n-- {
		b.Assert = append(b.Assert, mk())
	}
	for n := rng.Intn(2); n > 0; n-- {
		b.Retract = append(b.Retract, mk())
	}
	return b
}

// soakExpected replays the workload through an in-memory store and
// records the canonical state rendering after each sequence number.
// Sequence numbers advance only on batches with net effect, so the
// map is keyed by seq, not by step.
func soakExpected(seed int64, steps int) map[uint64]string {
	m := store.NewMem()
	defer m.Close()
	u := m.Universe()
	out := map[uint64]string{0: m.Snapshot().String(u)}
	for i := 1; i <= steps; i++ {
		ap, err := m.Apply(soakBatch(u, seed, i))
		if err != nil {
			panic(err)
		}
		if !ap.Empty() {
			out[ap.Seq] = m.Snapshot().String(u)
		}
	}
	return out
}

func TestWALKillPointSoak(t *testing.T) {
	const steps = 40
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)

	// Reference run without faults: learn the log size so kill points
	// cover the whole byte range, and snapshot the expected states.
	ref, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= steps; i++ {
		if _, err := ref.Apply(soakBatch(ref.Universe(), seed, i)); err != nil {
			t.Fatal(err)
		}
	}
	totalBytes := ref.Stats().LogBytes
	ref.Close()
	expected := soakExpected(seed, steps)

	rng := rand.New(rand.NewSource(seed))
	for kill := 0; kill < 60; kill++ {
		budget := rng.Int63n(totalBytes+16) + 1
		dir := t.TempDir()
		w, err := store.Open(dir, store.Options{NoSync: true, FailAfterBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		var acked uint64
		for i := 1; i <= steps; i++ {
			ap, aerr := w.Apply(soakBatch(w.Universe(), seed, i))
			if aerr != nil {
				break // the injected kill point
			}
			acked = ap.Seq
		}
		w.Close()

		r, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatalf("kill %d (budget %d): reopen: %v", kill, budget, err)
		}
		if r.Seq() != acked {
			t.Fatalf("kill %d (budget %d): recovered seq %d, acked %d", kill, budget, r.Seq(), acked)
		}
		want, ok := expected[acked]
		if !ok {
			t.Fatalf("kill %d: no expected state for seq %d", kill, acked)
		}
		if got := r.Snapshot().String(r.Universe()); got != want {
			t.Fatalf("kill %d (budget %d): state diverged at seq %d:\ngot:\n%swant:\n%s",
				kill, budget, acked, got, want)
		}
		r.Close()
	}
}

// soakChildEnv marks the re-exec'd child process of the SIGKILL soak.
const soakChildEnv = "UNCHAINED_WAL_SOAK_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(soakChildEnv) == "1" {
		runSoakChild()
		return
	}
	os.Exit(m.Run())
}

// runSoakChild appends the deterministic workload to the WAL in
// UNCHAINED_WAL_SOAK_DIR, printing "ACK <seq>" after each durable
// batch, until killed.
func runSoakChild() {
	dir := os.Getenv("UNCHAINED_WAL_SOAK_DIR")
	seed, _ := strconv.ParseInt(os.Getenv("UNCHAINED_WAL_SOAK_SEED"), 10, 64)
	w, err := store.Open(dir, store.Options{CompactEvery: 16})
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	u := w.Universe()
	// Capped at the workload horizon the parent replays for expected
	// states; a child that outruns the kill signal just exits cleanly.
	for i := 1; i <= 2000; i++ {
		ap, err := w.Apply(soakBatch(u, seed, i))
		if err != nil {
			fmt.Fprintln(os.Stderr, "child:", err)
			os.Exit(1)
		}
		fmt.Printf("ACK %d\n", ap.Seq)
	}
}

func TestWALSIGKILLSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("child-process soak skipped in -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skip("no test binary path:", err)
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	const kills = 6
	const maxSteps = 2000

	for kill := 0; kill < kills; kill++ {
		dir := t.TempDir()
		seed := rng.Int63n(1 << 30)
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			soakChildEnv+"=1",
			"UNCHAINED_WAL_SOAK_DIR="+dir,
			"UNCHAINED_WAL_SOAK_SEED="+strconv.FormatInt(seed, 10),
		)
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}

		// Read acks until a random count, then SIGKILL mid-flight.
		stopAfter := rng.Intn(120) + 5
		var lastAcked uint64
		sc := bufio.NewScanner(out)
		for i := 0; i < stopAfter && sc.Scan(); i++ {
			line := strings.TrimSpace(sc.Text())
			if n, ok := strings.CutPrefix(line, "ACK "); ok {
				if seq, err := strconv.ParseUint(n, 10, 64); err == nil {
					lastAcked = seq
				}
			}
		}
		cmd.Process.Signal(syscall.SIGKILL)
		cmd.Wait()

		r, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatalf("kill %d: reopen after SIGKILL: %v", kill, err)
		}
		recovered := r.Seq()
		// Every batch the parent saw acknowledged must have survived;
		// the child may have committed more that we never read.
		if recovered < lastAcked {
			t.Fatalf("kill %d: recovered seq %d < acked %d (durable batch lost)", kill, recovered, lastAcked)
		}
		expected := soakExpected(seed, maxSteps)
		want, ok := expected[recovered]
		if !ok {
			t.Fatalf("kill %d: recovered seq %d beyond workload horizon", kill, recovered)
		}
		if got := r.Snapshot().String(r.Universe()); got != want {
			t.Fatalf("kill %d: recovered state diverged at seq %d:\ngot:\n%swant:\n%s",
				kill, recovered, got, want)
		}
		r.Close()
	}
}
