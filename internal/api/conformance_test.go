// Package api_test boots the real HTTP tiers — a single daemon wrapped
// by the serving tier, and a 3-shard cluster behind the router — feeds
// both the same seeded report stream, and proves every /v1 payload is
// (a) valid under the checked-in JSON Schema and (b) byte-identical
// across tiers once topology-dependent fields (timestamps, latencies,
// epochs, journal positions) are normalized. The api-conformance CI
// job runs exactly this suite.
package api_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rfprism"
	"rfprism/internal/api"
	"rfprism/internal/geom"
	"rfprism/internal/ingest"
	"rfprism/internal/rf"
	"rfprism/internal/router"
	"rfprism/internal/serve"
	"rfprism/internal/sim"
)

const confSeed = 77

// newSystem builds a freshly calibrated paper-deployment System. The
// scene is seeded, so every call reconstructs identical solver state —
// single and sharded topologies start from the same calibration.
func newSystem(t *testing.T) *rfprism.System {
	t.Helper()
	scene, err := sim.NewScene(sim.PaperAntennas2D(nil), rf.CleanSpace(), sim.DefaultConfig(), confSeed)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rfprism.NewSystem(rfprism.DeploymentFromSim(scene.Antennas), rfprism.Bounds2D(sim.PaperRegion()))
	if err != nil {
		t.Fatal(err)
	}
	none, err := rf.MaterialByName("none")
	if err != nil {
		t.Fatal(err)
	}
	calPos := geom.Vec3{X: 1.0, Y: 1.5}
	calTag := scene.NewTag("cal")
	var calWin []sim.Reading
	for i := 0; i < 3; i++ {
		calWin = append(calWin, scene.CollectWindow(calTag, scene.Place(calPos, 0, none))...)
	}
	if err := sys.CalibrateAntennas(calWin, calPos, 0); err != nil {
		t.Fatal(err)
	}
	return sys
}

// buildStream renders the seeded interleaved NDJSON report stream both
// topologies ingest.
func buildStream(t *testing.T, nTags, rounds int) (lines int, body []byte, epcs []string) {
	t.Helper()
	scene, err := sim.NewScene(sim.PaperAntennas2D(nil), rf.CleanSpace(), sim.DefaultConfig(), confSeed)
	if err != nil {
		t.Fatal(err)
	}
	none, err := rf.MaterialByName("none")
	if err != nil {
		t.Fatal(err)
	}
	positions := []geom.Vec3{
		{X: 0.6, Y: 1.1}, {X: 1.2, Y: 1.6}, {X: 1.5, Y: 2.0},
		{X: 0.9, Y: 2.2}, {X: 1.8, Y: 1.2}, {X: 0.5, Y: 1.8},
	}
	var tracked []sim.TrackedTag
	for i := 0; i < nTags; i++ {
		tag := scene.NewTag(fmt.Sprintf("urn:epc:wire-%03d", i))
		tracked = append(tracked, sim.TrackedTag{
			Tag: tag, Motion: scene.Place(positions[i%len(positions)], 0.2*float64(i), none)})
		epcs = append(epcs, tag.EPC)
	}
	stream, err := scene.CollectStream(tracked, rounds)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rd := range stream {
		if err := enc.Encode(rd); err != nil {
			t.Fatal(err)
		}
	}
	return len(stream), buf.Bytes(), epcs
}

// singleTier is the daemon + serving-tier stack one shard runs, booted
// standalone: serve.Wrap in front of the ingest handler, backed by the
// epoch-swapped snapshot store.
type singleTier struct {
	daemon *ingest.Daemon
	srv    *httptest.Server
}

func newSingleTier(t *testing.T) *singleTier {
	t.Helper()
	store := serve.NewStore(serve.StoreConfig{History: 8})
	d := ingest.NewDaemon(newSystem(t), ingest.Config{
		Sessionizer: ingest.SessionizerConfig{CoverageClose: 45},
		QueueSize:   256,
	}, store)
	h := serve.NewServer(store, nil, nil).Wrap(ingest.NewServer(d).Handler())
	return &singleTier{daemon: d, srv: httptest.NewServer(h)}
}

func (s *singleTier) close(t *testing.T) {
	t.Helper()
	if err := s.daemon.Shutdown(context.Background()); err != nil {
		t.Error(err)
	}
	s.srv.Close()
}

func newClusterTier(t *testing.T) (*router.Cluster, *httptest.Server) {
	t.Helper()
	cluster, err := router.NewCluster(router.ClusterConfig{
		Shards:       3,
		NewProcessor: func(string) ingest.Processor { return newSystem(t) },
		Daemon: ingest.Config{
			Sessionizer: ingest.SessionizerConfig{CoverageClose: 45},
			QueueSize:   256,
		},
		RingDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cluster, httptest.NewServer(cluster.Handler())
}

func get(t *testing.T, url string, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
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
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

func ingestAll(t *testing.T, baseURL string, body []byte, lines int) []byte {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/ingest", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest %s: status %d body %s", baseURL, resp.StatusCode, reply)
	}
	if err := api.Validate("ingestReply", reply); err != nil {
		t.Fatalf("ingest reply violates schema: %v\nbody: %s", err, reply)
	}
	var ir api.IngestReply
	if err := json.Unmarshal(reply, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != lines {
		t.Fatalf("ingest %s accepted %d/%d", baseURL, ir.Accepted, lines)
	}
	return reply
}

// waitForTags polls /v1/tags until every expected EPC is visible.
func waitForTags(t *testing.T, baseURL string, want int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		_, _, body := get(t, baseURL+"/v1/tags", nil)
		var tl api.TagList
		if err := json.Unmarshal(body, &tl); err == nil && len(tl.Tags) >= want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	_, _, body := get(t, baseURL+"/v1/tags", nil)
	t.Fatalf("%s never served %d tags; last body: %s", baseURL, want, body)
}

// normalizeResult zeroes the topology-dependent fields of a TagResult
// so the remaining bytes must match across a single daemon and a
// sharded cluster: wall-clock timestamp, measured latency, per-stage
// timings and journal positions all legitimately differ; everything
// else — the window assembly and the solve — may not.
func normalizeResult(tr *api.TagResult) {
	tr.At = time.Time{}
	tr.LatencyMS = 0
	tr.StageMS = nil
	tr.FirstSeq = 0
	tr.LastSeq = 0
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestV1WireConformance is the api_redesign acceptance suite: all
// three tiers serve the canonical v1.1 wire schema, byte-identically.
func TestV1WireConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("boots full topologies; skipped in -short")
	}
	const nTags, rounds = 6, 2
	lines, stream, epcs := buildStream(t, nTags, rounds)

	single := newSingleTier(t)
	defer single.close(t)
	cluster, clusterSrv := newClusterTier(t)
	defer func() {
		if err := cluster.Close(context.Background()); err != nil {
			t.Error(err)
		}
		clusterSrv.Close()
	}()

	singleReply := ingestAll(t, single.srv.URL, stream, lines)
	clusterReply := ingestAll(t, clusterSrv.URL, stream, lines)
	if !bytes.Equal(singleReply, clusterReply) {
		t.Errorf("ingest replies drifted:\n daemon  %s\n cluster %s", singleReply, clusterReply)
	}
	waitForTags(t, single.srv.URL, nTags)
	waitForTags(t, clusterSrv.URL, nTags)

	t.Run("tags", func(t *testing.T) {
		_, _, sBody := get(t, single.srv.URL+"/v1/tags", nil)
		_, _, cBody := get(t, clusterSrv.URL+"/v1/tags", nil)
		for _, body := range [][]byte{sBody, cBody} {
			if err := api.Validate("tagList", body); err != nil {
				t.Errorf("tag list violates schema: %v\nbody: %s", err, body)
			}
		}
		if !bytes.Equal(sBody, cBody) {
			t.Errorf("tag lists drifted:\n daemon  %s\n cluster %s", sBody, cBody)
		}
	})

	t.Run("tags paged", func(t *testing.T) {
		var walked []string
		cursor := ""
		for page := 0; ; page++ {
			url := "/v1/tags?limit=2"
			if cursor != "" {
				url += "&cursor=" + cursor
			}
			_, _, sBody := get(t, single.srv.URL+url, nil)
			_, _, cBody := get(t, clusterSrv.URL+url, nil)
			if err := api.Validate("tagList", sBody); err != nil {
				t.Fatalf("page %d violates schema: %v\nbody: %s", page, err, sBody)
			}
			if !bytes.Equal(sBody, cBody) {
				t.Fatalf("page %d drifted:\n daemon  %s\n cluster %s", page, sBody, cBody)
			}
			var tl api.TagList
			if err := json.Unmarshal(sBody, &tl); err != nil {
				t.Fatal(err)
			}
			if tl.Count == nil || *tl.Count != nTags {
				t.Fatalf("page %d count %v, want %d", page, tl.Count, nTags)
			}
			walked = append(walked, tl.Tags...)
			if tl.Next == "" {
				break
			}
			cursor = tl.Next
		}
		if len(walked) != nTags {
			t.Fatalf("page walk visited %d tags, want %d", len(walked), nTags)
		}
	})

	t.Run("tag history", func(t *testing.T) {
		for _, epc := range epcs {
			_, _, sBody := get(t, single.srv.URL+"/v1/tags/"+epc, nil)
			_, _, cBody := get(t, clusterSrv.URL+"/v1/tags/"+epc, nil)
			for _, body := range [][]byte{sBody, cBody} {
				if err := api.Validate("tagHistory", body); err != nil {
					t.Fatalf("%s history violates schema: %v\nbody: %s", epc, err, body)
				}
			}
			var sh, ch api.TagHistory
			if err := json.Unmarshal(sBody, &sh); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(cBody, &ch); err != nil {
				t.Fatal(err)
			}
			if len(sh.Results) == 0 {
				t.Fatalf("%s: empty history", epc)
			}
			for i := range sh.Results {
				normalizeResult(&sh.Results[i])
			}
			for i := range ch.Results {
				normalizeResult(&ch.Results[i])
			}
			if s, c := marshal(t, sh), marshal(t, ch); !bytes.Equal(s, c) {
				t.Errorf("%s history drifted after normalization:\n daemon  %s\n cluster %s", epc, s, c)
			}
		}
	})

	t.Run("long poll", func(t *testing.T) {
		epc := epcs[0]
		url := "/v1/tags/" + epc + "?wait=5ms&since=999999999"
		sStatus, _, sBody := get(t, single.srv.URL+url, nil)
		cStatus, _, cBody := get(t, clusterSrv.URL+url, nil)
		if sStatus != http.StatusOK || cStatus != http.StatusOK {
			t.Fatalf("long-poll statuses %d/%d", sStatus, cStatus)
		}
		for _, body := range [][]byte{sBody, cBody} {
			if err := api.Validate("waitReply", body); err != nil {
				t.Errorf("wait reply violates schema: %v\nbody: %s", err, body)
			}
		}
		var sw, cw api.WaitReply
		if err := json.Unmarshal(sBody, &sw); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(cBody, &cw); err != nil {
			t.Fatal(err)
		}
		sw.Epoch, cw.Epoch = 0, 0 // snapshot epochs are topology-local
		if s, c := marshal(t, sw), marshal(t, cw); !bytes.Equal(s, c) {
			t.Errorf("wait replies drifted after normalization:\n daemon  %s\n cluster %s", s, c)
		}
	})

	t.Run("error envelopes", func(t *testing.T) {
		cases := []struct {
			name, url, code string
		}{
			{"bad limit", "/v1/tags?limit=bogus", "bad_param"},
			{"bad wait", "/v1/tags/" + epcs[0] + "?wait=bogus", "bad_param"},
			{"bad since", "/v1/tags/" + epcs[0] + "?wait=5ms&since=bogus", "bad_param"},
		}
		for _, c := range cases {
			sStatus, _, sBody := get(t, single.srv.URL+c.url, nil)
			cStatus, _, cBody := get(t, clusterSrv.URL+c.url, nil)
			if sStatus != http.StatusBadRequest || cStatus != http.StatusBadRequest {
				t.Errorf("%s: statuses %d/%d, want 400", c.name, sStatus, cStatus)
				continue
			}
			for _, body := range [][]byte{sBody, cBody} {
				if err := api.Validate("error", body); err != nil {
					t.Errorf("%s envelope violates schema: %v\nbody: %s", c.name, err, body)
				}
			}
			if !bytes.Equal(sBody, cBody) {
				t.Errorf("%s envelopes drifted:\n daemon  %s\n cluster %s", c.name, sBody, cBody)
			}
			var e api.Error
			if err := json.Unmarshal(sBody, &e); err != nil {
				t.Fatal(err)
			}
			if e.Code != c.code {
				t.Errorf("%s: code %q, want %q", c.name, e.Code, c.code)
			}
		}
	})

	t.Run("413 oversized report", func(t *testing.T) {
		huge := append(bytes.Repeat([]byte("x"), 2<<20), '\n')
		for _, base := range []string{single.srv.URL, clusterSrv.URL} {
			resp, err := http.Post(base+"/v1/ingest", "application/x-ndjson", bytes.NewReader(huge))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s: oversized line got %d body %s", base, resp.StatusCode, body)
			}
			if err := api.Validate("error", body); err != nil {
				t.Errorf("413 envelope violates schema: %v\nbody: %s", err, body)
			}
			var e api.Error
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatal(err)
			}
			if e.Code != ingest.CodeReportTooLarge {
				t.Errorf("%s: 413 code %q, want %q", base, e.Code, ingest.CodeReportTooLarge)
			}
			if e.Accepted != 0 || e.Line != 1 {
				t.Errorf("%s: 413 resume position accepted=%d line=%d, want 0/1", base, e.Accepted, e.Line)
			}
		}
	})

	t.Run("sse stream", func(t *testing.T) {
		epc := epcs[0]
		// A fresh subscriber gets the tag's current state up front.
		frame := readFrames(t, single.srv.URL+"/v1/tags/"+epc+"/stream", nil, 1)[0]
		checkResultFrame(t, frame, epc)

		// Resuming via Last-Event-ID and via ?since= must serve
		// byte-identical replays — the header is just the standard SSE
		// spelling of the query parameter.
		hdrFrames := readFrames(t, single.srv.URL+"/v1/tags/"+epc+"/stream", map[string]string{"Last-Event-ID": "0"}, 1)
		qryFrames := readFrames(t, single.srv.URL+"/v1/tags/"+epc+"/stream?since=0", nil, 1)
		if len(hdrFrames) != len(qryFrames) {
			t.Fatalf("resume frame counts differ: header %d, query %d", len(hdrFrames), len(qryFrames))
		}
		for i := range hdrFrames {
			if hdrFrames[i] != qryFrames[i] {
				t.Errorf("resume frame %d drifted:\n header %q\n query  %q", i, hdrFrames[i], qryFrames[i])
			}
		}

		// The router relays shard frames; data payloads must carry the
		// same schema.
		rFrame := readFrames(t, clusterSrv.URL+"/v1/tags/"+epc+"/stream", nil, 1)[0]
		checkResultFrame(t, rFrame, epc)
	})
}

// readFrames opens an SSE stream and reads the first n frames
// (blank-line delimited), then cancels the request.
func readFrames(t *testing.T, url string, hdr map[string]string, n int) []string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
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
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream %s: status %d body %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream %s: content type %q", url, ct)
	}
	var frames []string
	var cur strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			frames = append(frames, cur.String())
			cur.Reset()
			if len(frames) == n {
				return frames
			}
			continue
		}
		cur.WriteString(line)
		cur.WriteString("\n")
	}
	t.Fatalf("stream %s: ended after %d/%d frames (err %v)", url, len(frames), n, sc.Err())
	return nil
}

// checkResultFrame asserts one SSE frame is a schema-valid result
// event for the EPC.
func checkResultFrame(t *testing.T, frame, epc string) {
	t.Helper()
	var data string
	hasID := false
	for _, line := range strings.Split(strings.TrimRight(frame, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "id: "):
			hasID = true
		case strings.HasPrefix(line, "event: "):
			if ev := strings.TrimPrefix(line, "event: "); ev != "result" {
				t.Fatalf("frame event %q, want result:\n%s", ev, frame)
			}
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	if !hasID {
		t.Fatalf("result frame lacks an id line:\n%s", frame)
	}
	if data == "" {
		t.Fatalf("result frame lacks data:\n%s", frame)
	}
	if err := api.Validate("tagResult", []byte(data)); err != nil {
		t.Fatalf("SSE data violates schema: %v\ndata: %s", err, data)
	}
	var tr api.TagResult
	if err := json.Unmarshal([]byte(data), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.EPC != epc {
		t.Fatalf("frame for %q, want %q", tr.EPC, epc)
	}
}

// TestV1ThrottleEnvelope: the serving tier's 429 carries the uniform
// envelope plus Retry-After, like every other tier's refusal.
func TestV1ThrottleEnvelope(t *testing.T) {
	store := serve.NewStore(serve.StoreConfig{History: 4})
	defer store.Close()
	lim := serve.NewLimiter(serve.LimiterConfig{RatePerSec: 0.001, Burst: 1})
	d := ingest.NewDaemon(nullProc{}, ingest.Config{
		Sessionizer: ingest.SessionizerConfig{CoverageClose: 45}}, store)
	defer d.Shutdown(context.Background())
	srv := httptest.NewServer(serve.NewServer(store, lim, nil).Wrap(ingest.NewServer(d).Handler()))
	defer srv.Close()

	status, _, _ := get(t, srv.URL+"/v1/tags", nil)
	if status != http.StatusOK {
		t.Fatalf("first request throttled: %d", status)
	}
	status, hdr, body := get(t, srv.URL+"/v1/tags", nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("second request not throttled: %d", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if err := api.Validate("error", body); err != nil {
		t.Errorf("429 envelope violates schema: %v\nbody: %s", err, body)
	}
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.RetryAfterMS <= 0 {
		t.Errorf("429 envelope retry_after_ms = %d, want > 0", e.RetryAfterMS)
	}
}

// aliasTier is one HTTP tier under the alias tests: the single daemon
// wrapped by the serving tier, or the 3-shard router.
type aliasTier struct{ name, url string }

// aliasTiers boots both tiers with no traffic; they are torn down with
// the test.
func aliasTiers(t *testing.T) []aliasTier {
	t.Helper()
	store := serve.NewStore(serve.StoreConfig{History: 4})
	t.Cleanup(func() { store.Close() })
	d := ingest.NewDaemon(nullProc{}, ingest.Config{
		Sessionizer: ingest.SessionizerConfig{CoverageClose: 45}}, store)
	t.Cleanup(func() { d.Shutdown(context.Background()) })
	single := httptest.NewServer(serve.NewServer(store, nil, nil).Wrap(ingest.NewServer(d).Handler()))
	t.Cleanup(single.Close)
	cluster, err := router.NewCluster(router.ClusterConfig{
		Shards:       3,
		NewProcessor: func(string) ingest.Processor { return nullProc{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close(context.Background()) })
	routed := httptest.NewServer(cluster.Handler())
	t.Cleanup(routed.Close)
	return []aliasTier{{"daemon", single.URL}, {"router", routed.URL}}
}

// TestUnversionedPathsNotFound: the pre-/v1 aliases are gone on every
// tier. Each answers 404 with the uniform not_found envelope, on the
// single daemon and on the 3-shard router alike.
func TestUnversionedPathsNotFound(t *testing.T) {
	for _, tier := range aliasTiers(t) {
		for _, c := range []struct{ method, path string }{
			{http.MethodPost, "/ingest"},
			{http.MethodGet, "/tags"},
			{http.MethodGet, "/tags/urn:epc:wire-000"},
			{http.MethodGet, "/stream"},
		} {
			req, err := http.NewRequest(c.method, tier.url+c.path, strings.NewReader("{}\n"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s %s: status %d, want 404", tier.name, c.method, c.path, resp.StatusCode)
				continue
			}
			if err := api.Validate("error", body); err != nil {
				t.Errorf("%s %s %s: envelope violates schema: %v\nbody: %s", tier.name, c.method, c.path, err, body)
			}
			var e api.Error
			if err := json.Unmarshal(body, &e); err != nil || e.Code != "not_found" {
				t.Errorf("%s %s %s: body %s, want code not_found", tier.name, c.method, c.path, body)
			}
		}
	}
}

// TestV1DeprecationHeaders: with the aliases gone nothing is deprecated.
// No /v1 response and no 404 for a former alias carries a Deprecation
// header or a successor-version Link, on either tier.
func TestV1DeprecationHeaders(t *testing.T) {
	for _, tier := range aliasTiers(t) {
		for _, c := range []struct {
			path   string
			status int
		}{
			{"/v1/tags", http.StatusOK},
			{"/v1/tags/urn:epc:wire-000", http.StatusNotFound},
			{"/tags", http.StatusNotFound},
		} {
			status, hdr, body := get(t, tier.url+c.path, nil)
			if status != c.status {
				t.Errorf("%s GET %s: status %d, want %d (%s)", tier.name, c.path, status, c.status, body)
			}
			if dep := hdr.Get("Deprecation"); dep != "" {
				t.Errorf("%s GET %s: Deprecation header %q", tier.name, c.path, dep)
			}
			if link := hdr.Get("Link"); strings.Contains(link, "successor-version") {
				t.Errorf("%s GET %s: Link header %q advertises a successor", tier.name, c.path, link)
			}
		}
	}
}

// nullProc is an ingest.Processor that discards every window —
// servers under test here only exercise the HTTP surface.
type nullProc struct{}

func (nullProc) ProcessStream(ctx context.Context, in <-chan rfprism.Window) <-chan rfprism.WindowResult {
	out := make(chan rfprism.WindowResult)
	go func() {
		defer close(out)
		for range in {
		}
	}()
	return out
}
