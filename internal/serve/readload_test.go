package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rfprism"
	"rfprism/internal/ingest"
)

// drainProc is a stub solver: it consumes windows and produces
// nothing, so read-load tests feed the store directly via Emit.
type drainProc struct{}

func (drainProc) ProcessStream(ctx context.Context, in <-chan rfprism.Window) <-chan rfprism.WindowResult {
	out := make(chan rfprism.WindowResult)
	go func() {
		defer close(out)
		for range in {
		}
	}()
	return out
}

// wrappedSurface builds the full daemon read surface the way rfprismd
// does: serve.Server streaming endpoints over the ingest API handler,
// both backed by the snapshot store.
func wrappedSurface(t *testing.T, st *Store, lim *Limiter) http.Handler {
	t.Helper()
	d := ingest.NewDaemon(drainProc{}, ingest.Config{}, st)
	t.Cleanup(func() { _ = d.Shutdown(context.Background()) })
	return NewServer(st, lim, nil).Wrap(ingest.NewServer(d).Handler())
}

// TestRunReadLoadSmoke drives the mixed client population (pollers,
// long-pollers, SSE subscribers) against a live surface while results
// keep publishing, and checks every fleet made progress with zero
// errors and zero slow-consumer evictions — the scaled-down version of
// the 100k acceptance run in cmd/rfprism-bench.
func TestRunReadLoadSmoke(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	h := wrappedSurface(t, st, nil)

	epcs := make([]string, 4)
	for i := range epcs {
		epcs[i] = fmt.Sprintf("T-%d", i)
		emitVisible(t, st, tr(epcs[i], 0))
	}

	// Keep results flowing for the duration so long-polls change and
	// subscribers see events.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for seq := 1; ; seq++ {
			for _, epc := range epcs {
				_ = st.Emit(tr(epc, seq))
			}
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()

	rep, err := RunReadLoad(context.Background(), h, ReadLoadConfig{
		Pollers:      40,
		LongPollers:  20,
		Subscribers:  20,
		EPCs:         epcs,
		Duration:     600 * time.Millisecond,
		PollInterval: 25 * time.Millisecond,
		Wait:         100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clients != 80 {
		t.Fatalf("Clients = %d, want 80", rep.Clients)
	}
	if rep.Requests == 0 || rep.LongPolls == 0 || rep.Events == 0 {
		t.Fatalf("a fleet made no progress: %+v", rep)
	}
	if rep.Changed == 0 {
		t.Fatalf("no long-poll observed a change: %+v", rep)
	}
	if rep.Streams != 20 {
		t.Fatalf("Streams = %d, want 20", rep.Streams)
	}
	if rep.Errors != 0 || rep.Dropped != 0 || rep.Throttled != 0 {
		t.Fatalf("errors=%d dropped=%d throttled=%d, want all zero: %+v",
			rep.Errors, rep.Dropped, rep.Throttled, rep)
	}
	if rep.QPS <= 0 || rep.Elapsed <= 0 {
		t.Fatalf("throughput not reported: %+v", rep)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 || rep.P999 < rep.P99 {
		t.Fatalf("latency percentiles out of order: p50=%v p99=%v p999=%v", rep.P50, rep.P99, rep.P999)
	}
}

func TestRunReadLoadValidation(t *testing.T) {
	if _, err := RunReadLoad(context.Background(), http.NotFoundHandler(), ReadLoadConfig{Pollers: 1}); err == nil {
		t.Fatal("no EPCs must be an error")
	}
	if _, err := RunReadLoad(context.Background(), http.NotFoundHandler(), ReadLoadConfig{EPCs: []string{"A"}}); err == nil {
		t.Fatal("no clients must be an error")
	}
}

// TestReadLoadThrottleCounted: a rate-limited surface shows up as
// Throttled, not Errors — the loadgen distinguishes refusals from
// failures.
func TestReadLoadThrottleCounted(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	lim := NewLimiter(LimiterConfig{RatePerSec: 0.5, Burst: 1})
	h := wrappedSurface(t, st, lim)
	emitVisible(t, st, tr("A", 1))

	rep, err := RunReadLoad(context.Background(), h, ReadLoadConfig{
		Pollers:      4,
		EPCs:         []string{"A"},
		Duration:     300 * time.Millisecond,
		PollInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throttled == 0 {
		t.Fatalf("rate-limited run recorded no throttles: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("429s must not count as errors: %+v", rep)
	}
}

// TestLongPollHTTP pins the GET /v1/tags/{epc}?wait=&since= wire
// contract through the real ingest handler backed by the store.
func TestLongPollHTTP(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	h := wrappedSurface(t, st, nil)
	since := emitVisible(t, st, tr("A", 1))

	// Unchanged within the wait: changed=false at the current epoch.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("/v1/tags/A?wait=30ms&since=%d", since), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("timeout long-poll status = %d: %s", rec.Code, rec.Body)
	}
	var reply struct {
		Epoch   uint64          `json:"epoch"`
		Changed bool            `json:"changed"`
		Result  json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Changed || reply.Result != nil || reply.Epoch != since {
		t.Fatalf("timeout reply = %+v, want changed=false at epoch %d", reply, since)
	}
	if rec.Header().Get("X-RFPrism-Epoch") != fmt.Sprint(since) {
		t.Fatalf("X-RFPrism-Epoch = %q", rec.Header().Get("X-RFPrism-Epoch"))
	}

	// A publish during the hold answers promptly with the result.
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/v1/tags/A?wait=5s&since=%d", since), nil))
		done <- rec
	}()
	time.Sleep(10 * time.Millisecond)
	if err := st.Emit(tr("A", 2)); err != nil {
		t.Fatal(err)
	}
	select {
	case rec := <-done:
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatal(err)
		}
		if !reply.Changed || reply.Epoch <= since || reply.Result == nil {
			t.Fatalf("changed reply = %+v", reply)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("long-poll did not wake on publish")
	}

	// Malformed parameters get the uniform envelope.
	for _, path := range []string{"/v1/tags/A?wait=bogus", "/v1/tags/A?wait=1s&since=bogus"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("GET %s = %d, want 400", path, rec.Code)
		}
	}
}

// TestEmitNotStalledByReaders is the solver-isolation guarantee in
// miniature: Emit stays fast while a full read fleet hammers the
// surface, because readers touch only the atomic snapshot pointer.
func TestEmitNotStalledByReaders(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	h := wrappedSurface(t, st, nil)
	emitVisible(t, st, tr("A", 1))

	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		_, _ = RunReadLoad(context.Background(), h, ReadLoadConfig{
			Pollers:      200,
			LongPollers:  50,
			Subscribers:  50,
			EPCs:         []string{"A"},
			Duration:     400 * time.Millisecond,
			PollInterval: 5 * time.Millisecond,
			Wait:         50 * time.Millisecond,
		})
	}()

	time.Sleep(50 * time.Millisecond) // let the fleet ramp
	var worst time.Duration
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		if err := st.Emit(tr("A", i+2)); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d > worst {
			worst = d
		}
	}
	<-loadDone
	// Emit is a mutex-guarded append; even under the full fleet a
	// quarter second would mean readers are blocking the write path.
	if worst > 250*time.Millisecond {
		t.Fatalf("worst Emit latency under read load = %v", worst)
	}
}
