package ingest

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"rfprism"
	"rfprism/internal/geom"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// TestDaemonTracingEndToEnd: with the stage tracer installed the way
// cmd/rfprismd wires it (Metrics as rfprism.Tracer on the System),
// every window the daemon serves carries a per-stage breakdown and
// /metrics exposes non-zero per-stage latency histograms.
func TestDaemonTracingEndToEnd(t *testing.T) {
	scene, sys := newCalibratedSystem(t, 11)
	none, err := rf.MaterialByName("none")
	if err != nil {
		t.Fatal(err)
	}
	var tracked []sim.TrackedTag
	for i, p := range []geom.Vec3{{X: 0.7, Y: 1.2}, {X: 1.4, Y: 1.8}} {
		tracked = append(tracked, sim.TrackedTag{
			Tag:    scene.NewTag(fmt.Sprintf("trace-%d", i)),
			Motion: scene.Place(p, 0, none),
		})
	}
	stream, err := scene.CollectStream(tracked, 2)
	if err != nil {
		t.Fatal(err)
	}

	met := NewMetrics(time.Now())
	rfprism.WithTracer(met)(sys)
	rfprism.WithConfidence()(sys) // exercise the likelihood post-pass stage too

	cap := &captureSink{}
	d := NewDaemon(sys, Config{
		Sessionizer: SessionizerConfig{CoverageClose: 45},
		Metrics:     met,
	}, cap)
	if _, err := d.ReplayReports(context.Background(), stream, 0); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	results := cap.snapshot()
	if len(results) == 0 {
		t.Fatal("no results served")
	}
	solved := 0
	for _, tr := range results {
		if len(tr.StageMS) == 0 {
			t.Fatalf("%s/%d: result carries no stage breakdown", tr.EPC, tr.Seq)
		}
		// Every window at least runs the observation front-end.
		for _, st := range []rfprism.Stage{
			rfprism.StageSpectra, rfprism.StageFit, rfprism.StageObserve, rfprism.StageWindow,
		} {
			if _, ok := tr.StageMS[string(st)]; !ok {
				t.Errorf("%s/%d: stage %q missing from breakdown %v", tr.EPC, tr.Seq, st, tr.StageMS)
			}
		}
		if tr.Estimate != nil {
			solved++
			// A solved window executed the whole pipeline.
			for _, st := range []rfprism.Stage{rfprism.StageDetector, rfprism.StageSolve} {
				if _, ok := tr.StageMS[string(st)]; !ok {
					t.Errorf("%s/%d: solved window lacks stage %q: %v", tr.EPC, tr.Seq, st, tr.StageMS)
				}
			}
		}
	}
	if solved == 0 {
		t.Fatal("no window solved")
	}

	// The same spans must have landed in the /metrics stage histograms.
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()
	body := httpGet(t, srv.URL+"/metrics")
	counts := stageCounts(t, body)
	for _, st := range rfprism.Stages() {
		if counts[string(st)] == 0 {
			t.Errorf("/metrics stage %q histogram empty:\n%v", st, counts)
		}
	}
}

// httpGet fetches a URL and returns the body.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, b)
	}
	return string(b)
}

var stageCountRe = regexp.MustCompile(`rfprismd_stage_latency_seconds_count\{stage="([^"]+)"\} (\d+)`)

// stageCounts parses the per-stage histogram counts out of a
// Prometheus text exposition.
func stageCounts(t *testing.T, exposition string) map[string]int {
	t.Helper()
	out := make(map[string]int)
	for _, m := range stageCountRe.FindAllStringSubmatch(exposition, -1) {
		n, err := strconv.Atoi(m[2])
		if err != nil {
			t.Fatalf("bad count line %q: %v", m[0], err)
		}
		out[m[1]] = n
	}
	if len(out) == 0 && !strings.Contains(exposition, "rfprismd_stage_latency_seconds") {
		t.Fatalf("exposition has no stage histograms:\n%s", exposition)
	}
	return out
}
