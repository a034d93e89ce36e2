package ingest

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"rfprism/internal/sim"
)

func mustJSON(t *testing.T, rd sim.Reading) string {
	t.Helper()
	b, err := json.Marshal(rd)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// assertGoroutinesSettle polls until the goroutine count drops back to
// the recorded baseline, dumping stacks if it never does (same
// contract as the root package's batch leak tests).
func assertGoroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := 0
	for time.Now().Before(deadline) {
		runtime.GC() // nudge finished goroutines off the scheduler
		n = runtime.NumGoroutine()
		if n <= base {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
		n, base, buf[:runtime.Stack(buf, true)])
}

// TestDaemonShutdownNoLeak: a full deployment — journal (with its
// background sync loop), daemon (sweeper, feeder, result loop) and
// HTTP server — winds down to the goroutine baseline after shutdown.
// Run under -race; a leaked sync loop or result goroutine would keep
// the journal file descriptor alive past Close.
func TestDaemonShutdownNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()

	j, err := OpenJournal(JournalConfig{Dir: t.TempDir(), SyncEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(echoProc{}, crashTestConfig(j), &captureSink{})
	srv := httptest.NewServer(NewServer(d).Handler())

	// Drive real traffic through every layer: HTTP ingest, journal
	// append, sessionizer close, solve, ledger append, sink emit.
	var lines []string
	for _, epc := range []string{"A", "B", "poison-x"} {
		for _, rd := range fullWindow(epc) {
			lines = append(lines, mustJSON(t, rd))
		}
	}
	resp, err := http.Post(srv.URL+"/v1/ingest", "application/x-ndjson",
		strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d, want 202", resp.StatusCode)
	}
	waitFor(t, 5*time.Second, "all windows resolved", func() bool {
		m := d.Metrics()
		return m.ResultsOK.Load() == 2 && m.SolverPanics.Load() == 1
	})

	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	srv.Close()
	assertGoroutinesSettle(t, base)
}
