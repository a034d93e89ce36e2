package ingest

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestRetryAfterJitter: the jittered Retry-After stays inside
// [0.5, 1.5]× the base pause, rounds up to whole seconds, and never
// drops below 1 s.
func TestRetryAfterJitter(t *testing.T) {
	cases := []struct {
		base time.Duration
		u    float64
		want int
	}{
		{4 * time.Second, 0, 2},        // lower bound: 0.5×
		{4 * time.Second, 0.5, 4},      // midpoint: exactly the base
		{4 * time.Second, 0.999, 6},    // upper bound: just under 1.5×
		{3 * time.Second, 0.4, 3},      // fractional product rounds up
		{time.Second, 0, 1},            // floor: never advertise 0
		{100 * time.Millisecond, 0, 1}, // sub-second base still floors at 1
		{0, 0.9, 1},                    // zero base floors at 1
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.base, c.u); got != c.want {
			t.Errorf("retryAfterSeconds(%v, %v) = %d, want %d", c.base, c.u, got, c.want)
		}
	}
}

// TestServerBreakerReadiness: three solver panics trip the breaker —
// /readyz flips to 503 while /healthz keeps answering 200 (the daemon
// is alive, journaling everything), and /metrics exposes the trip.
func TestServerBreakerReadiness(t *testing.T) {
	j, err := OpenJournal(JournalConfig{Dir: t.TempDir(), SyncEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	cfg := crashTestConfig(j)
	cfg.Breaker = BreakerConfig{Threshold: 3, Window: time.Minute}
	d := NewDaemon(echoProc{}, cfg, &captureSink{})
	defer d.Shutdown(context.Background())
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, `"ready":true`) {
		t.Fatalf("healthy readyz: %d %s", code, body)
	}

	for i := 0; i < 3; i++ {
		for _, rd := range fullWindow("poison-" + string(rune('a'+i))) {
			if err := d.Offer(rd); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, 5*time.Second, "breaker trip", func() bool {
		return d.Gauges().BreakerTripped
	})

	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "breaker-tripped") {
		t.Fatalf("tripped readyz: %d %s", code, body)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "breaker-tripped") {
		t.Fatalf("tripped healthz: %d %s", code, body)
	}
	_, metrics := get("/metrics")
	for _, want := range []string{
		"rfprismd_breaker_tripped 1",
		"rfprismd_breaker_trips_total 1",
		"rfprismd_solver_panics_total 3",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, metrics)
		}
	}
}
