package rfprism

import (
	"context"
	"math"
	"testing"

	"rfprism/internal/core"
	"rfprism/internal/geom"
	"rfprism/internal/mathx"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// collectMotionWindows collects one tagged window per pose from a fresh
// seeded scene, so every system under test sees byte-identical input.
func collectMotionWindows(t *testing.T, seed int64, poses []tagPose) (*sim.Scene, []sim.Reading, []Window) {
	t.Helper()
	scene, err := sim.NewScene(sim.PaperAntennas2D(nil), rf.CleanSpace(), sim.DefaultConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	none, err := rf.MaterialByName("none")
	if err != nil {
		t.Fatal(err)
	}
	tag := scene.NewTag("fastpath-epc")
	calWin := scene.CollectWindow(tag, scene.Place(geom.Vec3{X: 1.0, Y: 1.5}, 0, none))
	wins := make([]Window, len(poses))
	for i, p := range poses {
		wins[i] = Window{Tag: "fastpath-epc", Readings: scene.CollectWindow(tag, scene.Place(p.pos, p.alpha, none))}
	}
	return scene, calWin, wins
}

type tagPose struct {
	pos   geom.Vec3
	alpha float64
}

// motionPath is a gently drifting trajectory: ~1.8 cm and 2° per
// window.
func motionPath(n int) []tagPose {
	poses := make([]tagPose, n)
	for i := range poses {
		poses[i] = tagPose{
			pos:   geom.Vec3{X: 0.7 + 0.015*float64(i), Y: 1.2 + 0.010*float64(i)},
			alpha: mathx.Rad(30 + 2*float64(i)),
		}
	}
	return poses
}

// moveDwellPath hops the tag ~6 cm every fourth window and holds it
// still in between, so the stationary cache serves the dwells and every
// hop solves.
func moveDwellPath(n int) []tagPose {
	poses := make([]tagPose, n)
	for i := range poses {
		hop := float64(i / 4)
		poses[i] = tagPose{
			pos:   geom.Vec3{X: 0.5 + 0.05*hop, Y: 1.1 + 0.04*hop},
			alpha: 0.3 + 0.05*hop,
		}
	}
	return poses
}

func newFastPathSystem(t *testing.T, scene *sim.Scene, calWin []sim.Reading, opts ...Option) *System {
	t.Helper()
	sys, err := NewSystem(DeploymentFromSim(scene.Antennas), Bounds2D(sim.PaperRegion()), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CalibrateAntennas(calWin, geom.Vec3{X: 1.0, Y: 1.5}, 0); err != nil {
		t.Fatal(err)
	}
	return sys
}

func posErrors(t *testing.T, results []WindowResult, poses []tagPose) []float64 {
	t.Helper()
	errs := make([]float64, 0, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("window %d: %v", i, r.Err)
		}
		errs = append(errs, r.Result.Estimate.Pos.Dist(poses[i].pos))
	}
	return errs
}

// TestWarmStartIsInert: the deprecated WithWarmStart option must change
// nothing — a move-and-dwell stream through the stationary cache gives
// bit-identical estimates with and without it, and the warm and pruning
// counters stay at zero.
func TestWarmStartIsInert(t *testing.T) {
	poses := moveDwellPath(16)
	scene, calWin, wins := collectMotionWindows(t, 306, poses)
	plain := newFastPathSystem(t, scene, calWin, WithParallelism(1), WithSolveCache(64))
	warm := newFastPathSystem(t, scene, calWin, WithParallelism(1), WithSolveCache(64), WithWarmStart())
	want := plain.ProcessWindows(context.Background(), wins)
	got := warm.ProcessWindows(context.Background(), wins)
	for i := range want {
		if want[i].Err != nil || got[i].Err != nil {
			t.Fatalf("window %d: %v / %v", i, want[i].Err, got[i].Err)
		}
		if got[i].Result.Estimate != want[i].Result.Estimate {
			t.Errorf("window %d: WithWarmStart changed the estimate:\n%+v\n%+v",
				i, got[i].Result.Estimate, want[i].Result.Estimate)
		}
	}
	st := warm.SolveStats()
	if st.WarmAttempts != 0 || st.WarmFallbacks != 0 || st.StartsPruned != 0 {
		t.Errorf("warm/prune counters moved: %+v", st)
	}
	if st != plain.SolveStats() || st.CacheHits == 0 {
		t.Errorf("cache counters: %+v with WithWarmStart, %+v without; want equal, with hits", st, plain.SolveStats())
	}
}

// TestSolveCacheServesStationary: repeated windows of a motionless tag
// must be served from the cache (no solve) after the first, and the
// served estimates must stay accurate.
func TestSolveCacheServesStationary(t *testing.T) {
	pose := tagPose{geom.Vec3{X: 1.1, Y: 1.6}, mathx.Rad(50)}
	poses := []tagPose{pose, pose, pose, pose, pose}
	scene, calWin, wins := collectMotionWindows(t, 303, poses)
	sys := newFastPathSystem(t, scene, calWin, WithParallelism(1), WithSolveCache(8))
	results := sys.ProcessWindows(context.Background(), wins)
	errs := posErrors(t, results, poses)
	stats := sys.SolveStats()
	if stats.CacheHits < int64(len(wins)-1) {
		t.Errorf("cache hits = %d, want ≥ %d for a motionless tag (misses %d)",
			stats.CacheHits, len(wins)-1, stats.CacheMisses)
	}
	for i, e := range errs {
		if e > 0.10 {
			t.Errorf("window %d: position error %.3f m", i, e)
		}
	}
	// Served estimates carry the *current* window's verified cost, not
	// a stale copy — the cost must be finite and positive.
	for i, r := range results[1:] {
		if c := r.Result.Estimate.Cost; !(c > 0) || math.IsInf(c, 0) {
			t.Errorf("served window %d has cost %v", i+1, c)
		}
	}
}

// TestSolveCacheMissesOnMotion: the stationary gate is millimeter
// scale — a tag that moved centimeters must miss the cache and
// re-solve.
func TestSolveCacheMissesOnMotion(t *testing.T) {
	poses := []tagPose{
		{geom.Vec3{X: 0.8, Y: 1.3}, mathx.Rad(40)},
		{geom.Vec3{X: 0.86, Y: 1.3}, mathx.Rad(40)}, // 6 cm hop
	}
	scene, calWin, wins := collectMotionWindows(t, 304, poses)
	sys := newFastPathSystem(t, scene, calWin, WithParallelism(1), WithSolveCache(8))
	errs := posErrors(t, sys.ProcessWindows(context.Background(), wins), poses)
	stats := sys.SolveStats()
	if stats.CacheHits != 0 {
		t.Errorf("cache hits = %d, want 0 after 6 cm of motion", stats.CacheHits)
	}
	if stats.CacheMisses != 2 {
		t.Errorf("cache misses = %d, want 2", stats.CacheMisses)
	}
	if errs[1] > 0.10 {
		t.Errorf("post-motion position error %.3f m", errs[1])
	}
}

// TestFastPathUntaggedAndRepeatDeterminism: untagged windows must
// bypass the fast path entirely (bit-identical to a plain system), and
// a serial fast-path run must be reproducible window for window.
func TestFastPathUntaggedAndRepeatDeterminism(t *testing.T) {
	poses := motionPath(4)
	scene, calWin, wins := collectMotionWindows(t, 305, poses)

	plain := newFastPathSystem(t, scene, calWin, WithParallelism(1))
	fast := newFastPathSystem(t, scene, calWin, WithParallelism(1), WithSolveCache(4))

	// Untagged: the fast-path system must not consult per-tag state.
	for i, w := range wins {
		pr, err := plain.ProcessWindow(w.Readings)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := fast.ProcessWindow(w.Readings)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Estimate != fr.Estimate {
			t.Errorf("untagged window %d: fast-path system diverged:\n%+v\n%+v", i, pr.Estimate, fr.Estimate)
		}
	}
	if st := fast.SolveStats(); st != (SolveStatsSnapshot{}) {
		t.Errorf("untagged windows touched the fast path: %+v", st)
	}

	// Tagged, serial, fresh state: two identical runs must agree
	// exactly — caching is a deterministic function of the window
	// sequence.
	runA := newFastPathSystem(t, scene, calWin, WithParallelism(1), WithSolveCache(4)).
		ProcessWindows(context.Background(), wins)
	runB := newFastPathSystem(t, scene, calWin, WithParallelism(1), WithSolveCache(4)).
		ProcessWindows(context.Background(), wins)
	for i := range runA {
		if runA[i].Err != nil || runB[i].Err != nil {
			t.Fatalf("window %d: %v / %v", i, runA[i].Err, runB[i].Err)
		}
		if runA[i].Result.Estimate != runB[i].Result.Estimate {
			t.Errorf("window %d: repeated fast-path runs differ:\n%+v\n%+v",
				i, runA[i].Result.Estimate, runB[i].Result.Estimate)
		}
	}
}

// TestSolveCacheLRUEviction pins the cache's bookkeeping: capacity is
// per-tag, eviction is least-recently-used, and an evicted tag simply
// re-solves (no error, no stale serve).
func TestSolveCacheLRUEviction(t *testing.T) {
	c := newSolveCache(FastPathConfig{CacheSize: 2})
	a := &tagState{est: Estimate{Cost: 1}}
	b := &tagState{est: Estimate{Cost: 2}}
	d := &tagState{est: Estimate{Cost: 3}}
	c.put("a", a)
	c.put("b", b)
	if c.get("a") != a {
		t.Fatal("a missing before eviction")
	}
	c.put("d", d) // evicts b (a was just used)
	if c.get("b") != nil {
		t.Error("b survived eviction")
	}
	if c.get("a") != a || c.get("d") != d {
		t.Error("a or d lost")
	}
	// Replacing an existing tag must not grow the cache.
	c.put("a", d)
	if c.ll.Len() != 2 || c.get("a") != d {
		t.Errorf("replace grew the cache to %d", c.ll.Len())
	}
}

// TestStationaryDeltaGates pins the fingerprint comparison: antenna
// set and order are strict, common-mode slope/intercept drift is
// compensated (device drift, not motion), and *differential* deltas —
// the positional signature — gate at the configured tolerances.
func TestStationaryDeltaGates(t *testing.T) {
	cfg := FastPathConfig{}.withDefaults()
	obs := testObsFingerprint([]int{1, 2, 3}, 1e-8, 2.0)
	sig := signature(obs)
	if dK, dB, ok := stationaryDelta(sig, obs, cfg); !ok || dK != 0 || math.Abs(dB) > 1e-12 {
		t.Fatalf("identical window: (%v, %v, %v), want (0, 0, true)", dK, dB, ok)
	}
	// Common-mode drift on every antenna is k_t/b_t movement and must
	// match, reporting the drift for the caller to compensate.
	drifted := testObsFingerprint([]int{1, 2, 3}, 1e-8+5e-9, 2.3)
	dK, dB, ok := stationaryDelta(sig, drifted, cfg)
	if !ok || math.Abs(dK-5e-9) > 1e-15 || math.Abs(dB-0.3) > 1e-9 {
		t.Errorf("common-mode drift: (%v, %v, %v), want (5e-9, 0.3, true)", dK, dB, ok)
	}
	// A differential slope change — one antenna only — is motion.
	moved := testObsFingerprint([]int{1, 2, 3}, 1e-8, 2.0)
	moved[0].Line.K += 6e-9
	if _, _, ok := stationaryDelta(sig, moved, cfg); ok {
		t.Error("differential slope delta past CacheDK must miss")
	}
	rotated := testObsFingerprint([]int{1, 2, 3}, 1e-8, 2.0)
	rotated[0].Line.B0 += 0.3
	if _, _, ok := stationaryDelta(sig, rotated, cfg); ok {
		t.Error("differential intercept delta past CacheDB must miss")
	}
	// An intercept straddling the 2π wrap is compared circularly.
	wrapped := testObsFingerprint([]int{1, 2, 3}, 1e-8, 2.0+2*math.Pi-0.01)
	if _, dB, ok := stationaryDelta(sig, wrapped, cfg); !ok || math.Abs(dB+0.01) > 1e-9 {
		t.Errorf("wrap straddle: (%v, %v), want (-0.01, true)", dB, ok)
	}
	if _, _, ok := stationaryDelta(sig, testObsFingerprint([]int{1, 2, 4}, 1e-8, 2.0), cfg); ok {
		t.Error("changed antenna set must miss")
	}
	if _, _, ok := stationaryDelta(sig, testObsFingerprint([]int{1, 2}, 1e-8, 2.0), cfg); ok {
		t.Error("shrunk antenna set must miss")
	}
}

func testObsFingerprint(ids []int, k, b0 float64) []core.Observation {
	obs := make([]core.Observation, len(ids))
	for i, id := range ids {
		obs[i].ID = id
		obs[i].Line.K = k
		obs[i].Line.B0 = b0
	}
	return obs
}
