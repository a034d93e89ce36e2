package ingest

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func ndjsonBody(reads ...string) io.Reader { return strings.NewReader(strings.Join(reads, "\n")) }

func readLine(epc string, ant, ch int) string {
	rd := mkRead(epc, ant, ch)
	b, _ := json.Marshal(rd)
	return string(b)
}

// wireReply decodes either side of an ingest outcome: the success body
// ({"accepted":N}) and the error envelope
// ({"error","code","retry_after_ms",...}).
type wireReply struct {
	Accepted     int    `json:"accepted"`
	Error        string `json:"error"`
	Code         string `json:"code"`
	RetryAfterMS int64  `json:"retry_after_ms"`
	Line         int    `json:"line"`
}

func postIngest(t *testing.T, srv *httptest.Server, body io.Reader) (*http.Response, wireReply) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/ingest", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply wireReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("decode ingest reply: %v", err)
	}
	return resp, reply
}

// TestServerIngestAndQuery: the happy path — NDJSON reports in,
// per-tag results out to the sinks, counters on /metrics. Tag reads
// are serve.Server's (internal/serve TestServerTagReads).
func TestServerIngestAndQuery(t *testing.T) {
	proc := newGatedProc()
	close(proc.gate)
	sink := &captureSink{}
	d := NewDaemon(proc, Config{
		Sessionizer: SessionizerConfig{CoverageClose: 2, MinAntennas: 1},
		RetryAfter:  10 * time.Millisecond,
	}, sink)
	defer d.Shutdown(context.Background())
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()

	resp, reply := postIngest(t, srv, ndjsonBody(
		readLine("A", 0, 0),
		"",                  // blank lines are tolerated
		readLine("A", 1, 1), // closes A/0
		readLine("B", 0, 5),
	))
	if resp.StatusCode != http.StatusAccepted || reply.Accepted != 3 {
		t.Fatalf("ingest: status %d, reply %+v", resp.StatusCode, reply)
	}

	waitFor(t, 2*time.Second, "result to reach the sink", func() bool {
		_, ok := sink.latest("A")
		return ok
	})
	if latest, _ := sink.latest("A"); latest.Seq != 0 || latest.Reason != "coverage" {
		t.Fatalf("latest: %+v", latest)
	}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	resp2, body := get("/healthz")
	if resp2.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("/healthz: %d %s", resp2.StatusCode, body)
	}
	resp3, body := get("/metrics")
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp3.StatusCode)
	}
	for _, want := range []string{
		`rfprismd_reports_total{outcome="accepted"} 3`,
		`rfprismd_windows_closed_total{reason="coverage"} 1`,
		`rfprismd_results_total{outcome="ok"} 1`,
		"rfprismd_window_latency_seconds_count 1",
		"rfprismd_open_sessions 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestServerBackpressure429: a full queue turns /ingest into 429 with
// a Retry-After header and an accurate accepted count, so clients can
// resume from the first refused line.
func TestServerBackpressure429(t *testing.T) {
	proc := newGatedProc() // stuck solver
	d := NewDaemon(proc, Config{
		Sessionizer: SessionizerConfig{CoverageClose: 2, MinAntennas: 1},
		QueueSize:   1,
		RetryAfter:  3 * time.Second,
	})
	s := NewServer(d)
	s.jitter = func() float64 { return 0.5 } // pin: Retry-After = 1.0× base
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, reply := postIngest(t, srv, ndjsonBody(
		readLine("A", 0, 0),
		readLine("A", 1, 1), // closes A/0 → queue full
		readLine("B", 0, 2), // refused
		readLine("B", 0, 3), // never reached
	))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if reply.Accepted != 2 || reply.Line != 3 {
		t.Fatalf("reply %+v, want accepted=2 line=3", reply)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After %q, want \"3\"", ra)
	}
	if reply.Code != CodeBackpressure || reply.RetryAfterMS != 3000 {
		t.Fatalf("envelope %+v, want code=%s retry_after_ms=3000", reply, CodeBackpressure)
	}

	// Release and drain: ingestion answers 503 during drain.
	close(proc.gate)
	go d.Shutdown(context.Background())
	waitFor(t, 2*time.Second, "drain to start", func() bool { return d.Gauges().Draining })
	resp2, _ := postIngest(t, srv, ndjsonBody(readLine("C", 0, 0)))
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining ingest status %d, want 503", resp2.StatusCode)
	}
	// Liveness stays 200 while draining (restarting a draining daemon
	// would lose the flush); readiness flips to 503.
	resp3, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz status %d, want 200", resp3.StatusCode)
	}
	resp4, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status %d, want 503", resp4.StatusCode)
	}
}

// TestServerIngestMalformed: a bad line aborts with 400 and points at
// the offending line without losing the prefix.
func TestServerIngestMalformed(t *testing.T) {
	proc := newGatedProc()
	close(proc.gate)
	d := NewDaemon(proc, Config{Sessionizer: SessionizerConfig{MinAntennas: 1}})
	defer d.Shutdown(context.Background())
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()

	resp, reply := postIngest(t, srv, ndjsonBody(readLine("A", 0, 0), "{not json"))
	if resp.StatusCode != http.StatusBadRequest || reply.Accepted != 1 || reply.Line != 2 {
		t.Fatalf("malformed line: status %d reply %+v", resp.StatusCode, reply)
	}
	resp2, reply2 := postIngest(t, srv, ndjsonBody(fmt.Sprintf(`{"epc":"A","antenna":0,"channel":%d}`, 999)))
	if resp2.StatusCode != http.StatusBadRequest || !strings.Contains(reply2.Error, "channel") {
		t.Fatalf("bad channel: status %d reply %+v", resp2.StatusCode, reply2)
	}
	if reply2.Code != CodeBadReport {
		t.Fatalf("bad channel envelope code %q, want %q", reply2.Code, CodeBadReport)
	}
}

// TestServerV1Parity: the ingest server mounts its endpoint under /v1
// only. Each former unversioned alias answers exactly what an unknown
// path answers: the same status and the same not_found envelope.
func TestServerV1Parity(t *testing.T) {
	proc := newGatedProc()
	close(proc.gate)
	d := NewDaemon(proc, Config{
		Sessionizer: SessionizerConfig{CoverageClose: 2, MinAntennas: 1},
	}, &captureSink{})
	defer d.Shutdown(context.Background())
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()

	if resp, reply := postIngest(t, srv, ndjsonBody(readLine("A", 0, 0))); resp.StatusCode != http.StatusAccepted || reply.Accepted != 1 {
		t.Fatalf("/v1/ingest: status %d reply %+v", resp.StatusCode, reply)
	}
	do := func(method, path string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, ndjsonBody(readLine("A", 1, 1)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	for _, c := range []struct{ method, alias, unknown string }{
		{http.MethodPost, "/ingest", "/no-such-ingest"},
		{http.MethodGet, "/tags", "/no-such-tags"},
		{http.MethodGet, "/tags/A", "/no-such-tags/A"},
	} {
		aliasCode, aliasBody := do(c.method, c.alias)
		unknownCode, unknownBody := do(c.method, c.unknown)
		// The envelope names the requested path; everything else matches.
		unknownBody = strings.Replace(unknownBody, c.unknown, c.alias, 1)
		if aliasCode != http.StatusNotFound || aliasCode != unknownCode || aliasBody != unknownBody {
			t.Errorf("%s %s and %s disagree:\n alias   %d %s\n unknown %d %s",
				c.method, c.alias, c.unknown, aliasCode, aliasBody, unknownCode, unknownBody)
		}
	}
	if _, metrics := do(http.MethodGet, "/metrics"); !strings.Contains(metrics, `rfprismd_reports_total{outcome="accepted"} 1`+"\n") {
		t.Errorf("POST /ingest ingested; /metrics:\n%s", metrics)
	}
}

// TestServerErrorEnvelope: every error response — unknown path, a
// removed unversioned alias, a read path this server does not mount —
// must parse as the uniform envelope with a non-empty code.
func TestServerErrorEnvelope(t *testing.T) {
	proc := newGatedProc()
	close(proc.gate)
	d := NewDaemon(proc, Config{Sessionizer: SessionizerConfig{MinAntennas: 1}})
	defer d.Shutdown(context.Background())
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()

	for _, c := range []struct {
		path     string
		wantCode string
		status   int
	}{
		{"/no/such/endpoint", CodeNotFound, http.StatusNotFound},
		{"/tags", CodeNotFound, http.StatusNotFound},
		{"/v1/tags/ghost", CodeNotFound, http.StatusNotFound},
	} {
		resp, err := http.Get(srv.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Error        string `json:"error"`
			Code         string `json:"code"`
			RetryAfterMS *int64 `json:"retry_after_ms"`
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(body, &env); err != nil {
			t.Errorf("%s: body not a JSON envelope: %v (%s)", c.path, err, body)
			continue
		}
		if resp.StatusCode != c.status || env.Code != c.wantCode || env.Error == "" {
			t.Errorf("%s: status %d code %q error %q, want %d/%q", c.path, resp.StatusCode, env.Code, env.Error, c.status, c.wantCode)
		}
		if env.RetryAfterMS == nil {
			t.Errorf("%s: envelope missing retry_after_ms: %s", c.path, body)
		}
	}
}
