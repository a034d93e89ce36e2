package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rfprism"
	"rfprism/internal/geom"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// captureSink records every emitted result for assertions.
type captureSink struct {
	mu      sync.Mutex
	results []TagResult
	closed  bool
}

func (s *captureSink) Emit(r TagResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.results = append(s.results, r)
	return nil
}

func (s *captureSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

func (s *captureSink) snapshot() []TagResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]TagResult(nil), s.results...)
}

// latest returns the last result emitted for epc.
func (s *captureSink) latest(epc string) (TagResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.results) - 1; i >= 0; i-- {
		if s.results[i].EPC == epc {
			return s.results[i], true
		}
	}
	return TagResult{}, false
}

// gatedProc is a Processor that holds the entire stream until its gate
// opens — the lever for deterministic backpressure tests.
type gatedProc struct {
	gate chan struct{}
}

func newGatedProc() *gatedProc { return &gatedProc{gate: make(chan struct{})} }

func (p *gatedProc) ProcessStream(ctx context.Context, in <-chan rfprism.Window) <-chan rfprism.WindowResult {
	out := make(chan rfprism.WindowResult)
	go func() {
		defer close(out)
		select {
		case <-p.gate:
		case <-ctx.Done():
			return
		}
		i := 0
		for w := range in {
			out <- rfprism.WindowResult{Index: i, Tag: w.Tag, Result: &rfprism.Result{}}
			i++
		}
	}()
	return out
}

// fakeClock is a hand-advanced clock for deadline tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDaemonBackpressure: a full window queue refuses reports with
// ErrBusy before touching the sessionizer, and recovers once the
// solver drains.
func TestDaemonBackpressure(t *testing.T) {
	proc := newGatedProc()
	cap := &captureSink{}
	d := NewDaemon(proc, Config{
		Sessionizer: SessionizerConfig{CoverageClose: 2, MinAntennas: 1},
		QueueSize:   1,
		RetryAfter:  10 * time.Millisecond,
	}, cap)

	// Close one window: it parks in the queue (the gated proc refuses
	// to read), so the queue is full.
	if err := d.Offer(mkRead("A", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Offer(mkRead("A", 0, 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, "queue to fill", func() bool { return d.Gauges().QueueDepth == 1 })

	if err := d.Offer(mkRead("B", 0, 0)); !errors.Is(err, ErrBusy) {
		t.Fatalf("full queue accepted a report: %v", err)
	}
	if g := d.Gauges(); g.OpenSessions != 0 {
		t.Fatalf("backpressured report opened a session: %+v", g)
	}
	if got := d.Metrics().ReportsBackpressured.Load(); got != 1 {
		t.Fatalf("backpressure counter %d, want 1", got)
	}

	// Release the solver: the queue drains and ingestion resumes.
	close(proc.gate)
	waitFor(t, time.Second, "queue to drain", func() bool { return d.Gauges().QueueDepth == 0 })
	waitFor(t, time.Second, "ingestion to resume", func() bool { return d.Offer(mkRead("B", 0, 0)) == nil })

	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	results := cap.snapshot()
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2 (A coverage + B drain)", len(results))
	}
	if results[0].EPC != "A" || results[0].Reason != "coverage" {
		t.Fatalf("first result: %+v", results[0])
	}
	if results[1].EPC != "B" || results[1].Reason != "drain" {
		t.Fatalf("second result: %+v", results[1])
	}
	if !cap.closed {
		t.Error("sink not closed on shutdown")
	}
}

// TestDaemonDrainAndRefuse: Shutdown flushes open sessions through the
// solver, refuses new reports, and is idempotent.
func TestDaemonDrainAndRefuse(t *testing.T) {
	proc := newGatedProc()
	close(proc.gate)
	cap := &captureSink{}
	d := NewDaemon(proc, Config{
		Sessionizer: SessionizerConfig{MinAntennas: 1},
		RetryAfter:  10 * time.Millisecond,
	}, cap)
	for ch := 0; ch < 5; ch++ {
		if err := d.Offer(mkRead("A", ch%2, ch)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := d.Offer(mkRead("A", 0, 9)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain Offer: %v", err)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	results := cap.snapshot()
	if len(results) != 1 || results[0].Reason != "drain" || results[0].Readings != 5 {
		t.Fatalf("drain results: %+v", results)
	}
	if got := d.Metrics().WindowsClosed(CloseDrain); got != 1 {
		t.Fatalf("drain close counter %d, want 1", got)
	}
}

// TestDaemonDeadlineExpiry: a partial window that meets the antenna
// floor is force-closed by the dwell deadline and solved; one below
// the floor is discarded and counted.
func TestDaemonDeadlineExpiry(t *testing.T) {
	clk := &fakeClock{t: t0}
	proc := newGatedProc()
	close(proc.gate)
	cap := &captureSink{}
	d := NewDaemon(proc, Config{
		Sessionizer: SessionizerConfig{Dwell: time.Second, MinAntennas: 3},
		ExpireEvery: 5 * time.Millisecond,
		Now:         clk.Now,
	}, cap)
	defer d.Shutdown(context.Background())

	// A heard through 3 antennas, B through 1.
	for ant := 0; ant < 3; ant++ {
		if err := d.Offer(mkRead("A", ant, ant)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Offer(mkRead("B", 0, 0)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	waitFor(t, 2*time.Second, "deadline window to be solved", func() bool {
		return len(cap.snapshot()) == 1
	})
	r := cap.snapshot()[0]
	if r.EPC != "A" || r.Reason != "deadline" || r.Antennas != 3 {
		t.Fatalf("deadline result: %+v", r)
	}
	waitFor(t, time.Second, "unusable partial to be discarded", func() bool {
		return d.Metrics().WindowsDiscarded.Load() == 1
	})
	if got := d.Metrics().WindowsClosed(CloseDeadline); got != 1 {
		t.Fatalf("deadline close counter %d, want 1", got)
	}
}

// newCalibratedSystem builds the paper deployment with a calibrated
// System, mirroring the offline pipelines, so daemon results are
// comparable to direct ProcessWindow calls.
func newCalibratedSystem(t *testing.T, seed int64) (*sim.Scene, *rfprism.System) {
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
	return scene, sys
}

// TestDaemonEndToEndReplayMatchesProcessWindow: the acceptance test.
// A seeded three-tag interleaved stream replayed through the daemon
// yields, per (EPC, seq), exactly the windows an offline sessionizer
// run assembles and exactly the estimates ProcessWindow computes on
// those windows — the daemon adds plumbing, not drift.
func TestDaemonEndToEndReplayMatchesProcessWindow(t *testing.T) {
	scene, sys := newCalibratedSystem(t, 42)
	none, err := rf.MaterialByName("none")
	if err != nil {
		t.Fatal(err)
	}
	positions := []geom.Vec3{{X: 0.6, Y: 1.1}, {X: 1.2, Y: 1.6}, {X: 1.5, Y: 2.0}}
	var tracked []sim.TrackedTag
	for i, p := range positions {
		tracked = append(tracked, sim.TrackedTag{
			Tag:    scene.NewTag(fmt.Sprintf("e2e-%d", i)),
			Motion: scene.Place(p, 0.3*float64(i), none),
		})
	}
	stream, err := scene.CollectStream(tracked, 2)
	if err != nil {
		t.Fatal(err)
	}
	sessCfg := SessionizerConfig{CoverageClose: 45}

	// Expected outcomes: the same sessionizer logic offline, each
	// window solved directly with ProcessWindow.
	type outcome struct {
		est    *rfprism.Estimate
		reason CloseReason
	}
	expected := make(map[string]outcome)
	ref := NewSessionizer(sessCfg)
	var refWindows []ClosedWindow
	for _, rd := range stream {
		if cw, closed, err := ref.Add(rd, t0); err != nil {
			t.Fatal(err)
		} else if closed {
			refWindows = append(refWindows, cw)
		}
	}
	refWindows = append(refWindows, ref.Drain(t0)...)
	for _, cw := range refWindows {
		key := fmt.Sprintf("%s/%d", cw.EPC, cw.Seq)
		res, err := sys.ProcessWindow(cw.Readings)
		if err != nil {
			expected[key] = outcome{reason: cw.Reason}
			continue
		}
		est := res.Estimate
		expected[key] = outcome{est: &est, reason: cw.Reason}
	}
	if len(expected) < len(positions) {
		t.Fatalf("reference produced only %d windows", len(expected))
	}

	// Live side: replay the identical stream through the daemon.
	cap := &captureSink{}
	d := NewDaemon(sys, Config{
		Sessionizer: sessCfg,
		RetryAfter:  10 * time.Millisecond,
	}, cap)
	if _, err := d.ReplayReports(context.Background(), stream, 0); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	got := cap.snapshot()
	if len(got) != len(expected) {
		t.Fatalf("daemon produced %d results, reference %d", len(got), len(expected))
	}
	solved := 0
	for _, tr := range got {
		key := fmt.Sprintf("%s/%d", tr.EPC, tr.Seq)
		want, ok := expected[key]
		if !ok {
			t.Fatalf("daemon produced unexpected window %s", key)
		}
		if tr.Reason != want.reason.String() {
			t.Errorf("%s: close reason %s, want %s", key, tr.Reason, want.reason)
		}
		if (tr.Estimate != nil) != (want.est != nil) {
			t.Fatalf("%s: outcome mismatch: daemon err=%q, reference solved=%v", key, tr.Err, want.est != nil)
		}
		if want.est == nil {
			continue
		}
		solved++
		if tr.Estimate.X != want.est.Pos.X || tr.Estimate.Y != want.est.Pos.Y ||
			tr.Estimate.Kt != want.est.Kt || tr.Estimate.Bt0 != want.est.Bt0 {
			t.Errorf("%s: estimate drifted from ProcessWindow:\n daemon   %+v\n expected pos=%+v kt=%g bt0=%g",
				key, tr.Estimate, want.est.Pos, want.est.Kt, want.est.Bt0)
		}
	}
	if solved < len(positions) {
		t.Fatalf("only %d windows solved end to end, want ≥ %d", solved, len(positions))
	}
	// Each tag's latest solved estimate should localize near truth —
	// the stream really carries usable physics, not just plumbing.
	for i, tr := range tracked {
		latest, ok := cap.latest(tr.Tag.EPC)
		if !ok {
			t.Fatalf("no result for %s", tr.Tag.EPC)
		}
		if latest.Estimate == nil {
			continue // a drained partial tail may be rejected; covered above
		}
		dx, dy := latest.Estimate.X-positions[i].X, latest.Estimate.Y-positions[i].Y
		if dx*dx+dy*dy > 0.35*0.35 {
			t.Errorf("%s: localization error %.2f m", tr.Tag.EPC, dx*dx+dy*dy)
		}
	}
	if d.Metrics().ResultsOK.Load() < int64(solved) {
		t.Errorf("metrics ResultsOK %d < solved %d", d.Metrics().ResultsOK.Load(), solved)
	}
}

// TestDaemonShutdownTimeout: a context that expires mid-drain aborts
// with the context error instead of hanging, and the daemon still
// winds down its goroutines.
func TestDaemonShutdownTimeout(t *testing.T) {
	proc := newGatedProc() // gate never opens: the solver is stuck
	d := NewDaemon(proc, Config{
		Sessionizer: SessionizerConfig{CoverageClose: 2, MinAntennas: 1},
		QueueSize:   1,
	})
	if err := d.Offer(mkRead("B", 0, 0)); err != nil { // stays open → drain flushes it
		t.Fatal(err)
	}
	if err := d.Offer(mkRead("A", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Offer(mkRead("A", 0, 1)); err != nil { // closes, parks in queue
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := d.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stuck drain returned %v, want deadline exceeded", err)
	}
}
