package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"rfprism/internal/api"
	"rfprism/internal/ingest"
)

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	ID    string
	Event string
	Data  string
}

// sseTestServer mounts the streaming surface over a trivial inner
// handler on a real HTTP server (real flusher, real client contexts).
func sseTestServer(t *testing.T, st *Store, lim *Limiter) *httptest.Server {
	t.Helper()
	srv := NewServer(st, lim, nil)
	srv.SetHeartbeat(50 * time.Millisecond)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot) // distinguishable fallthrough
	})
	ts := httptest.NewServer(srv.Wrap(inner))
	t.Cleanup(ts.Close)
	return ts
}

// openSSE starts one SSE client and parses its frames (heartbeat
// comments skipped) onto a channel that closes at stream end. The
// stream is torn down with the test.
func openSSE(t *testing.T, url string, hdr map[string]string) (*http.Response, <-chan sseEvent) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	events := make(chan sseEvent, 64)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if ev != (sseEvent{}) {
					events <- ev
				}
				ev = sseEvent{}
			case strings.HasPrefix(line, ":"): // heartbeat comment
			case strings.HasPrefix(line, "id: "):
				ev.ID = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				ev.Event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.Data = strings.TrimPrefix(line, "data: ")
			}
		}
	}()
	return resp, events
}

func nextEvent(t *testing.T, events <-chan sseEvent, what string) sseEvent {
	t.Helper()
	select {
	case ev, ok := <-events:
		if !ok {
			t.Fatalf("stream ended waiting for %s", what)
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
	panic("unreachable")
}

func epcOf(t *testing.T, ev sseEvent) string {
	t.Helper()
	var res struct {
		EPC string `json:"epc"`
		Seq int    `json:"seq"`
	}
	if err := json.Unmarshal([]byte(ev.Data), &res); err != nil {
		t.Fatalf("bad result data %q: %v", ev.Data, err)
	}
	return res.EPC
}

func TestSSETagStream(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	ts := sseTestServer(t, st, nil)
	epoch := emitVisible(t, st, tr("A", 1))

	resp, events := openSSE(t, ts.URL+"/v1/tags/A/stream", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if resp.Header.Get("X-RFPrism-Epoch") == "" {
		t.Fatal("missing X-RFPrism-Epoch header")
	}

	// A fresh per-tag subscriber is primed with the current state.
	ev := nextEvent(t, events, "primer event")
	if ev.Event != "result" || epcOf(t, ev) != "A" {
		t.Fatalf("primer = %+v, want result for A", ev)
	}
	if id, _ := strconv.ParseUint(ev.ID, 10, 64); id != epoch {
		t.Fatalf("primer id = %s, want tag epoch %d", ev.ID, epoch)
	}

	// Another tag's result must not leak into the per-EPC stream.
	emitVisible(t, st, tr("B", 1))
	emitVisible(t, st, tr("A", 2))
	ev = nextEvent(t, events, "live event")
	if ev.Event != "result" || epcOf(t, ev) != "A" {
		t.Fatalf("live event = %+v, want the next A result only", ev)
	}
}

func TestSSEResumeReplaysWindow(t *testing.T) {
	st := newTestStore(t, StoreConfig{RecentEpochs: 8})
	ts := sseTestServer(t, st, nil)
	for i := 1; i <= 3; i++ {
		emitVisible(t, st, tr("A", i))
	}
	head := st.Epoch()

	// Resume from one epoch back via the standard reconnect header: the
	// missed batch is replayed before live events.
	_, events := openSSE(t, ts.URL+"/v1/tags/A/stream", map[string]string{
		"Last-Event-ID": strconv.FormatUint(head-1, 10),
	})
	ev := nextEvent(t, events, "replayed event")
	if ev.Event != "result" || ev.ID != strconv.FormatUint(head, 10) {
		t.Fatalf("replay = %+v, want the head batch at epoch %d", ev, head)
	}

	// ?since= is the query-param spelling of the same resume.
	_, events2 := openSSE(t, ts.URL+"/v1/tags/A/stream?since="+strconv.FormatUint(head-1, 10), nil)
	if ev := nextEvent(t, events2, "since= replay"); ev.Event != "result" {
		t.Fatalf("since= replay = %+v", ev)
	}
}

func TestSSEResyncBehindWindow(t *testing.T) {
	st := newTestStore(t, StoreConfig{RecentEpochs: 2})
	ts := sseTestServer(t, st, nil)
	for i := 1; i <= 4; i++ {
		emitVisible(t, st, tr("A", i))
	}

	_, events := openSSE(t, ts.URL+"/v1/tags/A/stream?since=1", nil)
	ev := nextEvent(t, events, "resync event")
	if ev.Event != "resync" {
		t.Fatalf("first frame = %+v, want resync for a client behind the window", ev)
	}
	var body struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal([]byte(ev.Data), &body); err != nil || body.Epoch == 0 {
		t.Fatalf("resync data = %q (%v)", ev.Data, err)
	}
	// Live events still follow the resync marker.
	emitVisible(t, st, tr("A", 5))
	if ev := nextEvent(t, events, "post-resync live event"); ev.Event != "result" {
		t.Fatalf("post-resync event = %+v", ev)
	}
}

func TestSSEFirehoseAndPrefix(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	ts := sseTestServer(t, st, nil)

	_, all := openSSE(t, ts.URL+"/v1/stream", nil)
	_, onlyB := openSSE(t, ts.URL+"/v1/stream?prefix=B-", nil)

	// Give both streams time to subscribe before publishing.
	waitFor(t, 2*time.Second, "both firehose subscribers", func() bool {
		return st.Hub().Subscribers() == 2
	})
	emitVisible(t, st, tr("A-1", 1))
	emitVisible(t, st, tr("B-1", 1))

	got := map[string]bool{}
	for len(got) < 2 {
		got[epcOf(t, nextEvent(t, all, "firehose event"))] = true
	}
	if !got["A-1"] || !got["B-1"] {
		t.Fatalf("firehose saw %v, want both tags", got)
	}
	if epc := epcOf(t, nextEvent(t, onlyB, "prefix-filtered event")); epc != "B-1" {
		t.Fatalf("prefix stream saw %q, want B-1 only", epc)
	}
}

func TestSSEShutdownSendsDropped(t *testing.T) {
	st := NewStore(StoreConfig{})
	ts := sseTestServer(t, st, nil)
	_, events := openSSE(t, ts.URL+"/v1/stream", nil)
	waitFor(t, 2*time.Second, "subscriber registration", func() bool {
		return st.Hub().Subscribers() == 1
	})
	_ = st.Close()
	for {
		ev := nextEvent(t, events, "dropped event")
		if ev.Event != "dropped" {
			continue
		}
		var body struct {
			Reason string `json:"reason"`
		}
		if err := json.Unmarshal([]byte(ev.Data), &body); err != nil || body.Reason != "shutdown" {
			t.Fatalf("dropped data = %q (%v), want shutdown", ev.Data, err)
		}
		return
	}
}

func TestSSEStreamQuota(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	lim := NewLimiter(LimiterConfig{MaxStreams: 1})
	ts := sseTestServer(t, st, lim)

	hdr := map[string]string{"X-API-Key": "client-1"}
	resp, _ := openSSE(t, ts.URL+"/v1/stream", hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first stream status = %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/stream", nil)
	req.Header.Set("X-API-Key", "client-1")
	over, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer over.Body.Close()
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota stream status = %d, want 429", over.StatusCode)
	}
	var envelope struct {
		Code string `json:"code"`
	}
	body, _ := io.ReadAll(over.Body)
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Code != CodeStreamQuota {
		t.Fatalf("over-quota envelope = %q (%v), want code %s", body, err, CodeStreamQuota)
	}
	if lim.StreamRejects() != 1 {
		t.Fatalf("StreamRejects = %d, want 1", lim.StreamRejects())
	}

	// A different client still gets its stream.
	other, events := openSSE(t, ts.URL+"/v1/stream", map[string]string{"X-API-Key": "client-2"})
	if other.StatusCode != http.StatusOK {
		t.Fatalf("other client stream status = %d", other.StatusCode)
	}
	_ = events
}

func TestWrapFallsThroughToInner(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	ts := sseTestServer(t, st, nil)
	for _, path := range []string{"/v1/ingest", "/healthz", "/tags/A", "/stream", "/nope"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTeapot {
			t.Fatalf("GET %s = %d, want the inner handler's reply", path, resp.StatusCode)
		}
	}
}

// TestSSEUnversionedAliases: the streams are mounted under /v1 only.
// The former unversioned stream aliases fall through to the inner
// handler while their /v1 twins stream.
func TestSSEUnversionedAliases(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	ts := sseTestServer(t, st, nil)
	emitVisible(t, st, tr("A", 1))
	resp, events := openSSE(t, ts.URL+"/v1/tags/A/stream", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1 stream status = %d", resp.StatusCode)
	}
	if ev := nextEvent(t, events, "/v1 primer"); epcOf(t, ev) != "A" {
		t.Fatalf("/v1 primer = %+v", ev)
	}
	for _, path := range []string{"/tags/A/stream", "/stream"} {
		if status, _, _ := get(t, ts, path); status != http.StatusTeapot {
			t.Errorf("GET %s = %d, want the inner handler's reply", path, status)
		}
	}
}

// get issues one GET against the test server and returns the status,
// headers and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestServerTagReads: the plain tag reads — list, history, latest and
// the unknown-tag envelope — each advertising the snapshot epoch.
func TestServerTagReads(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	ts := sseTestServer(t, st, nil)
	emitVisible(t, st, tr("A", 0))
	epoch := emitVisible(t, st, tr("B", 0))
	wantEpoch := strconv.FormatUint(epoch, 10)

	code, hdr, body := get(t, ts, "/v1/tags/A")
	if code != http.StatusOK || !strings.Contains(string(body), `"epc":"A"`) {
		t.Fatalf("/v1/tags/A: %d %s", code, body)
	}
	if got := hdr.Get("X-RFPrism-Epoch"); got != wantEpoch {
		t.Fatalf("/v1/tags/A epoch header %q, want %s", got, wantEpoch)
	}
	code, hdr, body = get(t, ts, "/v1/tags/A?latest=1")
	var latest ingest.TagResult
	if err := json.Unmarshal(body, &latest); err != nil || code != http.StatusOK {
		t.Fatalf("/v1/tags/A?latest=1: %d %s (%v)", code, body, err)
	}
	if latest.Seq != 0 || latest.Reason != "coverage" {
		t.Fatalf("latest: %+v", latest)
	}
	if got := hdr.Get("X-RFPrism-Epoch"); got != wantEpoch {
		t.Fatalf("latest epoch header %q, want %s", got, wantEpoch)
	}
	for _, path := range []string{"/v1/tags/unknown", "/v1/tags/unknown?latest=1"} {
		code, _, body = get(t, ts, path)
		var env api.Error
		if err := json.Unmarshal(body, &env); err != nil || code != http.StatusNotFound || env.Code != ingest.CodeNotFound {
			t.Fatalf("%s: %d %s, want 404 %s", path, code, body, ingest.CodeNotFound)
		}
	}
	code, hdr, body = get(t, ts, "/v1/tags")
	if code != http.StatusOK || !strings.Contains(string(body), `"tags":["A","B"]`) {
		t.Fatalf("/v1/tags: %d %s", code, body)
	}
	if got := hdr.Get("X-RFPrism-Epoch"); got != wantEpoch {
		t.Fatalf("/v1/tags epoch header %q, want %s", got, wantEpoch)
	}
}

type tagsPage struct {
	Tags  []string `json:"tags"`
	Count *int     `json:"count"`
	Next  string   `json:"next"`
}

func getTagsPage(t *testing.T, ts *httptest.Server, query string) (int, tagsPage) {
	t.Helper()
	code, _, body := get(t, ts, "/v1/tags"+query)
	var page tagsPage
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("/v1/tags%s: %v (%s)", query, err, body)
	}
	return code, page
}

func TestServerTagsPagination(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	ts := sseTestServer(t, st, nil)
	for i, epc := range []string{"d", "b", "a", "c"} {
		emitVisible(t, st, tr(epc, i))
	}

	// Legacy shape: no limit/cursor keeps the pre-pagination body —
	// tags only, no count, no next.
	code, legacy := getTagsPage(t, ts, "")
	if code != http.StatusOK || !reflect.DeepEqual(legacy.Tags, []string{"a", "b", "c", "d"}) {
		t.Fatalf("legacy list = %d %+v", code, legacy)
	}
	if legacy.Count != nil || legacy.Next != "" {
		t.Fatalf("legacy shape grew pagination fields: %+v", legacy)
	}

	code, first := getTagsPage(t, ts, "?limit=3")
	if code != http.StatusOK || !reflect.DeepEqual(first.Tags, []string{"a", "b", "c"}) {
		t.Fatalf("first page = %d %+v", code, first)
	}
	if first.Count == nil || *first.Count != 4 || first.Next != "c" {
		t.Fatalf("first page metadata = %+v", first)
	}

	code, last := getTagsPage(t, ts, "?limit=3&cursor="+first.Next)
	if code != http.StatusOK || !reflect.DeepEqual(last.Tags, []string{"d"}) || last.Next != "" {
		t.Fatalf("last page = %d %+v", code, last)
	}

	// Cursor alone (no limit) is still the paginated shape.
	code, rest := getTagsPage(t, ts, "?cursor=b")
	if code != http.StatusOK || !reflect.DeepEqual(rest.Tags, []string{"c", "d"}) || rest.Count == nil {
		t.Fatalf("cursor-only page = %d %+v", code, rest)
	}

	for _, bad := range []string{"?limit=bogus", "?limit=0", "?limit=-2"} {
		code, _, body := get(t, ts, "/v1/tags"+bad)
		var envelope api.Error
		_ = json.Unmarshal(body, &envelope)
		if code != http.StatusBadRequest || envelope.Code != ingest.CodeBadParam {
			t.Fatalf("GET /v1/tags%s = %d code %q, want 400 %s", bad, code, envelope.Code, ingest.CodeBadParam)
		}
	}
}

// TestServerEpochHeaderMatchesBody: a plain read answers its body and
// X-RFPrism-Epoch from one snapshot. With a writer publishing tag A
// concurrently, the newest A result at or below the advertised epoch
// must be exactly the one in the body — an epoch ahead of the body
// would let a client resuming since=<epoch> skip the results between.
func TestServerEpochHeaderMatchesBody(t *testing.T) {
	const writes = 3000
	st := newTestStore(t, StoreConfig{RecentEpochs: writes})
	h := NewServer(st, nil, nil).Wrap(http.NotFoundHandler())

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= writes; i++ {
			_ = st.Emit(tr("A", i)) // Store.Emit never fails
			time.Sleep(10 * time.Microsecond)
		}
	}()
	type read struct {
		epoch uint64
		seq   int
	}
	var reads []read
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tags/A?latest=1", nil))
		if rec.Code == http.StatusNotFound {
			continue // before the first swap
		}
		var res ingest.TagResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("read: %d %s (%v)", rec.Code, rec.Body.Bytes(), err)
		}
		epoch, err := strconv.ParseUint(rec.Header().Get("X-RFPrism-Epoch"), 10, 64)
		if err != nil {
			t.Fatalf("epoch header %q: %v", rec.Header().Get("X-RFPrism-Epoch"), err)
		}
		reads = append(reads, read{epoch, res.Seq})
	}

	// Every swap carried at least one result, so the window of writes
	// batches holds the whole history.
	batches, ok := st.Snapshot().Since(0)
	if !ok {
		t.Fatal("retained window lost early batches")
	}
	var published []Event // every A result with its own epoch, ascending
	for _, b := range batches {
		for i, res := range b.Results {
			published = append(published, Event{Epoch: b.First + uint64(i), Result: res})
		}
	}
	for _, r := range reads {
		i := sort.Search(len(published), func(i int) bool { return published[i].Epoch > r.epoch })
		if i == 0 {
			t.Fatalf("epoch %d precedes every result", r.epoch)
		}
		if want := published[i-1].Result.Seq; r.seq != want {
			t.Fatalf("read advertised epoch %d (latest A seq %d) but served seq %d", r.epoch, want, r.seq)
		}
	}
	t.Logf("%d reads checked against %d batches", len(reads), len(batches))
}

// TestSSESwapBatchFramesEveryResult: every result of one swap batch
// gets its own frame, carrying its own epoch.
func TestSSESwapBatchFramesEveryResult(t *testing.T) {
	st := newStore(StoreConfig{}) // no swap loop: the test swaps
	t.Cleanup(func() { _ = st.Close() })
	ts := sseTestServer(t, st, nil)
	_, events := openSSE(t, ts.URL+"/v1/stream", nil)
	waitFor(t, 2*time.Second, "subscriber registration", func() bool {
		return st.Hub().Subscribers() == 1
	})
	for i := 1; i <= 3; i++ {
		if err := st.Emit(tr("A", i)); err != nil {
			t.Fatal(err)
		}
	}
	st.swap()
	for seq := 1; seq <= 3; seq++ {
		ev := nextEvent(t, events, fmt.Sprintf("frame for result %d of the batch", seq))
		var res ingest.TagResult
		if err := json.Unmarshal([]byte(ev.Data), &res); err != nil {
			t.Fatalf("frame data %q: %v", ev.Data, err)
		}
		if ev.Event != "result" || ev.ID != strconv.Itoa(seq) || res.Seq != seq {
			t.Fatalf("frame %d = %+v, want result seq %d with id %d", seq, ev, seq, seq)
		}
	}
}

// TestSSEResumeInsideSwapBatch: a client that resumes with the id of
// any frame of a multi-result swap batch is replayed exactly the rest
// of that batch, then continues live.
func TestSSEResumeInsideSwapBatch(t *testing.T) {
	st := newStore(StoreConfig{}) // no swap loop: the test swaps
	t.Cleanup(func() { _ = st.Close() })
	ts := sseTestServer(t, st, nil)
	_, live := openSSE(t, ts.URL+"/v1/stream", nil)
	waitFor(t, 2*time.Second, "subscriber registration", func() bool {
		return st.Hub().Subscribers() == 1
	})
	for _, r := range []ingest.TagResult{tr("A", 1), tr("B", 1), tr("A", 2)} {
		if err := st.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
	st.swap()
	frames := make([]sseEvent, 3)
	for i := range frames {
		frames[i] = nextEvent(t, live, "live frame of the batch")
	}

	resumed := make([]<-chan sseEvent, len(frames))
	for i, f := range frames {
		_, resumed[i] = openSSE(t, ts.URL+"/v1/stream", map[string]string{"Last-Event-ID": f.ID})
	}
	// Each resume replays the frames after its own, then the next live
	// result: a sentinel published once every resume has subscribed.
	waitFor(t, 2*time.Second, "resume registrations", func() bool {
		return st.Hub().Subscribers() == int64(1+len(frames))
	})
	if err := st.Emit(tr("C", 1)); err != nil {
		t.Fatal(err)
	}
	st.swap()
	sentinel := nextEvent(t, live, "live sentinel frame")
	for i, events := range resumed {
		want := append(append([]sseEvent(nil), frames[i+1:]...), sentinel)
		for _, w := range want {
			if got := nextEvent(t, events, "resumed frame"); got != w {
				t.Fatalf("resume from id %s: got %+v, want %+v", frames[i].ID, got, w)
			}
		}
	}
}
