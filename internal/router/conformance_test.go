package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"rfprism"
	"rfprism/internal/geom"
	"rfprism/internal/ingest"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// collector is a Sink that records every TagResult a shard emits.
type collector struct {
	mu      sync.Mutex
	results []ingest.TagResult
}

func (c *collector) Emit(r ingest.TagResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results = append(c.results, r)
	return nil
}

func (c *collector) Close() error { return nil }

func (c *collector) snapshot() []ingest.TagResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ingest.TagResult(nil), c.results...)
}

// newConformanceSystem builds a freshly calibrated paper-deployment
// System. Called once per daemon so single and sharded topologies
// start from byte-identical solver state: the scene is seeded, so
// every invocation reconstructs the same calibration.
func newConformanceSystem(t *testing.T, seed int64) *rfprism.System {
	t.Helper()
	scene, err := sim.NewScene(sim.PaperAntennas2D(nil), rf.CleanSpace(), sim.DefaultConfig(), seed)
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

// conformanceStream builds the seeded interleaved report stream both
// topologies ingest, rendered once as NDJSON so they see identical
// bytes.
func conformanceStream(t *testing.T, seed int64, nTags, rounds int) (lines int, body []byte, epcs []string) {
	t.Helper()
	scene, err := sim.NewScene(sim.PaperAntennas2D(nil), rf.CleanSpace(), sim.DefaultConfig(), seed)
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
		p := positions[i%len(positions)]
		tag := scene.NewTag(fmt.Sprintf("urn:epc:conf-%03d", i))
		tracked = append(tracked, sim.TrackedTag{Tag: tag, Motion: scene.Place(p, 0.2*float64(i), none)})
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

// resultKey is the cross-topology window identity: (EPC, per-EPC Seq).
// FirstSeq is journal-local (each shard numbers its own journal), so
// it cannot be compared across topologies; Seq is assigned by the
// per-EPC sessionizer stream, which sharding preserves exactly.
func resultKey(r ingest.TagResult) string { return fmt.Sprintf("%s/%d", r.EPC, r.Seq) }

// canonicalResult strips the topology-dependent fields (timestamps,
// latency, journal positions) and renders what must be bit-identical:
// the window's assembly (reason, channels, antennas) and the solve.
func canonicalResult(t *testing.T, r ingest.TagResult) string {
	t.Helper()
	c := struct {
		Reason   string              `json:"reason"`
		Channels int                 `json:"channels"`
		Antennas int                 `json:"antennas"`
		Estimate *ingest.EstimateOut `json:"estimate"`
		Err      string              `json:"err"`
	}{r.Reason, r.Channels, r.Antennas, r.Estimate, r.Err}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// indexResults keys results by (EPC, Seq), failing on any duplicate —
// the zero-duplicate half of the conformance claim.
func indexResults(t *testing.T, label string, results []ingest.TagResult) map[string]string {
	t.Helper()
	out := make(map[string]string, len(results))
	for _, r := range results {
		k := resultKey(r)
		if _, dup := out[k]; dup {
			t.Fatalf("%s: duplicate result for %s", label, k)
		}
		out[k] = canonicalResult(t, r)
	}
	return out
}

// postAll sends the whole NDJSON body in one request and asserts every
// line was accepted (the conformance stream must not hit
// backpressure — a 429 here means the topology under test was
// misconfigured, not that conformance failed).
func postAll(t *testing.T, url string, body []byte, lines int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply struct {
		Accepted int    `json:"accepted"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || reply.Accepted != lines {
		t.Fatalf("ingest: status %d accepted %d/%d (%s)", resp.StatusCode, reply.Accepted, lines, reply.Error)
	}
}

// TestClusterConformance is the sharding acceptance test: the same
// seeded interleaved stream, ingested once through a single journaled
// daemon and once through a 3-shard cluster behind the router, yields
// bit-identical per-(EPC, Seq) results — same windows, same close
// reasons, same estimates to the last bit — with zero duplicates and
// zero loss. Per-EPC invariants survive sharding because one EPC's
// reports always land on one shard in request order.
func TestClusterConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("full solves; skipped in -short")
	}
	const seed, nTags, rounds = 42, 6, 2
	lines, body, _ := conformanceStream(t, seed, nTags, rounds)
	sessCfg := ingest.SessionizerConfig{CoverageClose: 45}

	// Topology A: one journaled daemon behind the plain ingest server.
	singleCap := &collector{}
	j, err := ingest.OpenJournal(ingest.JournalConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	single := ingest.NewDaemon(newConformanceSystem(t, seed), ingest.Config{
		Sessionizer: sessCfg,
		QueueSize:   256,
		Journal:     j,
	}, singleCap)
	srv := httptest.NewServer(ingest.NewServer(single).Handler())
	postAll(t, srv.URL, body, lines)
	if err := single.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	want := indexResults(t, "single", singleCap.snapshot())
	if len(want) < nTags {
		t.Fatalf("single daemon produced only %d windows", len(want))
	}

	// Topology B: 3 journaled shards behind the router.
	caps := make(map[string]*collector)
	var capsMu sync.Mutex
	cluster, err := NewCluster(ClusterConfig{
		Shards: 3,
		Dir:    t.TempDir(),
		NewProcessor: func(string) ingest.Processor {
			return newConformanceSystem(t, seed)
		},
		NewSinks: func(id string) []ingest.Sink {
			capsMu.Lock()
			defer capsMu.Unlock()
			c := &collector{}
			caps[id] = c
			return []ingest.Sink{c}
		},
		Daemon: ingest.Config{Sessionizer: sessCfg, QueueSize: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	rsrv := httptest.NewServer(cluster.Handler())
	postAll(t, rsrv.URL, body, lines)
	if err := cluster.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	rsrv.Close()

	var clusterResults []ingest.TagResult
	shardsWithResults := 0
	for _, c := range caps {
		rs := c.snapshot()
		if len(rs) > 0 {
			shardsWithResults++
		}
		clusterResults = append(clusterResults, rs...)
	}
	if shardsWithResults < 2 {
		t.Fatalf("conformance stream exercised only %d shard(s); widen the tag set", shardsWithResults)
	}
	got := indexResults(t, "cluster", clusterResults)

	// Zero loss, zero excess, bit-identical payloads.
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("cluster lost window %s", k)
			continue
		}
		if g != w {
			t.Errorf("window %s drifted across topologies:\n single  %s\n cluster %s", k, w, g)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("cluster invented window %s", k)
		}
	}
}
