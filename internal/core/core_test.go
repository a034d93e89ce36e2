package core

import (
	"errors"
	"math"
	"testing"

	"rfprism/internal/fit"
	"rfprism/internal/geom"
	"rfprism/internal/mathx"
	"rfprism/internal/rf"
)

// synthObs builds noiseless observations for a tag at pos with
// in-plane polarization alpha, material slope kt and intercept bt0,
// observed by the given antenna geometries.
func synthObs(ants []geom.Vec3, aims []geom.Vec3, pos geom.Vec3, alpha, kt, bt0 float64) []Observation {
	w := rf.TagPolarization2D(alpha)
	obs := make([]Observation, len(ants))
	for i := range ants {
		frame := geom.NewFrame(aims[i].Sub(ants[i]).Unit())
		d := ants[i].Dist(pos)
		obs[i] = Observation{
			ID:    i,
			Pos:   ants[i],
			Frame: frame,
			Line: fit.Line{
				K:      rf.PropagationSlope(d) + kt,
				B0:     mathx.Wrap2Pi(rf.PropagationPhase(d, rf.CenterFrequencyHz) + rf.OrientationPhase(frame, w) + bt0),
				SigmaK: 4e-10,
			},
		}
	}
	return obs
}

var (
	testAnts = []geom.Vec3{
		{X: 0.5, Y: 0, Z: 1.0},
		{X: 1.0, Y: 0, Z: 1.5},
		{X: 1.5, Y: 0, Z: 1.2},
	}
	testAims = []geom.Vec3{
		{X: 1.9, Y: 1.3, Z: 0},
		{X: 1.0, Y: 1.7, Z: 0},
		{X: 0.1, Y: 1.3, Z: 0},
	}
	testBounds = Bounds{XMin: 0, XMax: 2, YMin: 0.5, YMax: 2.5}
)

func TestSolve2DNoiselessExact(t *testing.T) {
	cases := []struct {
		pos      geom.Vec3
		alphaDeg float64
		kt, bt0  float64
	}{
		{geom.Vec3{X: 0.7, Y: 1.2}, 60, 0.9e-8, 1.2},
		{geom.Vec3{X: 1.5, Y: 2.1}, 0, 0.2e-8, 5.5},
		{geom.Vec3{X: 0.3, Y: 0.8}, 150, 1.8e-8, 0.1},
		{geom.Vec3{X: 1.0, Y: 1.5}, 90, 0, 3.0},
	}
	for _, c := range cases {
		obs := synthObs(testAnts, testAims, c.pos, mathx.Rad(c.alphaDeg), c.kt, c.bt0)
		// Without the kt prior the solver is an unbiased estimator and
		// must be near-exact on noiseless data.
		est, err := Solve2D(obs, testBounds, Options{NoKtPrior: true})
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if d := est.Pos.Dist(c.pos); d > 0.01 {
			t.Errorf("%+v: position error %.3f m", c, d)
		}
		if oe := math.Abs(mathx.AngDiffPeriod(est.Alpha, mathx.Rad(c.alphaDeg), math.Pi)); mathx.Deg(oe) > 2 {
			t.Errorf("%+v: orientation error %.2f°", c, mathx.Deg(oe))
		}
		if math.Abs(est.Kt-c.kt) > 5e-10 {
			t.Errorf("%+v: kt %.3g, want %.3g", c, est.Kt, c.kt)
		}
		if be := math.Abs(mathx.WrapPi(est.Bt0 - c.bt0)); be > 0.15 {
			t.Errorf("%+v: bt0 error %.3f rad", c, be)
		}
	}
}

func TestSolve2DPriorBiasBounded(t *testing.T) {
	// The physical kt prior trades a small radial bias for robustness
	// at the far edge; on noiseless data that bias must stay small.
	for _, c := range []struct {
		pos geom.Vec3
		kt  float64
	}{
		{geom.Vec3{X: 1.0, Y: 1.5}, 0},
		{geom.Vec3{X: 0.7, Y: 1.2}, 2e-8},
	} {
		obs := synthObs(testAnts, testAims, c.pos, mathx.Rad(45), c.kt, 1)
		est, err := Solve2D(obs, testBounds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if d := est.Pos.Dist(c.pos); d > 0.06 {
			t.Errorf("prior bias %.3f m at %+v", d, c)
		}
		if oe := mathx.Deg(math.Abs(mathx.AngDiffPeriod(est.Alpha, mathx.Rad(45), math.Pi))); oe > 6 {
			t.Errorf("prior orientation bias %.1f° at %+v", oe, c)
		}
	}
}

func TestSolve2DTooFewAntennas(t *testing.T) {
	obs := synthObs(testAnts[:2], testAims[:2], geom.Vec3{X: 1, Y: 1}, 0, 0, 0)
	if _, err := Solve2D(obs, testBounds, Options{}); !errors.Is(err, ErrTooFewAntennas) {
		t.Fatalf("want ErrTooFewAntennas, got %v", err)
	}
}

func TestSolve2DDisableFinePhase(t *testing.T) {
	pos := geom.Vec3{X: 0.9, Y: 1.4}
	obs := synthObs(testAnts, testAims, pos, mathx.Rad(30), 0.5e-8, 2)
	est, err := Solve2D(obs, testBounds, Options{DisableFinePhase: true})
	if err != nil {
		t.Fatal(err)
	}
	// Slope-only is still accurate on noiseless data.
	if d := est.Pos.Dist(pos); d > 0.02 {
		t.Fatalf("slope-only position error %.3f", d)
	}
}

func TestSolve2DKtPriorShrinksOnly(t *testing.T) {
	// With an extreme true kt far outside the prior, the prior biases
	// the estimate toward its mean but the position must survive.
	pos := geom.Vec3{X: 1.1, Y: 1.3}
	obs := synthObs(testAnts, testAims, pos, 0, 4e-8, 1)
	withPrior, err := Solve2D(obs, testBounds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noPrior, err := Solve2D(obs, testBounds, Options{NoKtPrior: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(noPrior.Kt-4e-8) > 5e-10 {
		t.Fatalf("no-prior kt = %g, want 4e-8", noPrior.Kt)
	}
	if withPrior.Pos.Dist(pos) > 0.25 {
		t.Fatalf("prior destroyed localization: err %.3f", withPrior.Pos.Dist(pos))
	}
}

func TestCalibrateAntennasRemovesOffsets(t *testing.T) {
	calPos := geom.Vec3{X: 1.0, Y: 1.5}
	// Inject per-antenna hardware offsets on top of the physics.
	offsets := []struct{ dk, db float64 }{{2e-8, 0.5}, {-1e-8, 1.2}, {3e-8, -0.7}}
	obs := synthObs(testAnts, testAims, calPos, 0, 0, 0)
	for i := range obs {
		obs[i].Line.K += offsets[i].dk
		obs[i].Line.B0 = mathx.Wrap2Pi(obs[i].Line.B0 + offsets[i].db)
	}
	cal, err := CalibrateAntennas(obs, calPos, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range offsets {
		if math.Abs(cal.DK[i]-offsets[i].dk) > 1e-12 {
			t.Errorf("DK[%d] = %g, want %g", i, cal.DK[i], offsets[i].dk)
		}
		if math.Abs(mathx.WrapPi(cal.DB[i]-offsets[i].db)) > 1e-9 {
			t.Errorf("DB[%d] = %g, want %g", i, cal.DB[i], offsets[i].db)
		}
	}
	// Applying the calibration and solving at another pose must work.
	target := geom.Vec3{X: 0.6, Y: 1.9}
	obs2 := synthObs(testAnts, testAims, target, mathx.Rad(120), 1e-8, 2)
	for i := range obs2 {
		obs2[i].Line.K += offsets[i].dk
		obs2[i].Line.B0 = mathx.Wrap2Pi(obs2[i].Line.B0 + offsets[i].db)
	}
	est, err := Solve2D(cal.Apply(obs2), testBounds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := est.Pos.Dist(target); d > 0.02 {
		t.Fatalf("calibrated solve error %.3f m", d)
	}
	if oe := mathx.Deg(math.Abs(mathx.AngDiffPeriod(est.Alpha, mathx.Rad(120), math.Pi))); oe > 3 {
		t.Fatalf("calibrated orientation error %.1f°", oe)
	}
}

func TestCalibrateAntennasEmpty(t *testing.T) {
	if _, err := CalibrateAntennas(nil, geom.Vec3{}, 0); err == nil {
		t.Fatal("empty observations must error")
	}
}

func TestAntennaCalApplyNoop(t *testing.T) {
	obs := synthObs(testAnts, testAims, geom.Vec3{X: 1, Y: 1}, 0, 0, 0)
	out := (AntennaCal{}).Apply(obs)
	for i := range obs {
		if out[i].Line.K != obs[i].Line.K || out[i].Line.B0 != obs[i].Line.B0 {
			t.Fatal("zero calibration must be a no-op")
		}
	}
}

func TestAntennaCalApplyAdjustsPhases(t *testing.T) {
	obs := synthObs(testAnts, testAims, geom.Vec3{X: 1, Y: 1}, 0, 0, 0)
	obs[0].Freqs = []float64{rf.CenterFrequencyHz, rf.CenterFrequencyHz + 1e6}
	obs[0].Phases = []float64{1.0, 2.0}
	cal := AntennaCal{DK: map[int]float64{0: 1e-9}, DB: map[int]float64{0: 0.25}}
	out := cal.Apply(obs)
	if math.Abs(out[0].Phases[0]-(1.0-0.25)) > 1e-12 {
		t.Fatalf("phase at f0: %g", out[0].Phases[0])
	}
	if math.Abs(out[0].Phases[1]-(2.0-1e-9*1e6-0.25)) > 1e-12 {
		t.Fatalf("phase at f0+1MHz: %g", out[0].Phases[1])
	}
	// The input must be untouched.
	if obs[0].Phases[0] != 1.0 {
		t.Fatal("Apply mutated its input")
	}
}

func TestNormalizeAlpha(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, 0},
		{math.Pi + 0.3, 0.3},
		{-0.2, math.Pi - 0.2},
		{2*math.Pi + 0.1, 0.1},
	}
	for _, c := range cases {
		if got := normalizeAlpha(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("normalizeAlpha(%g) = %g, want %g", c.in, got, c.want)
		}
	}
	// A negative angle smaller than half an ulp of π used to round up
	// onto π itself, outside [0, π).
	for _, a := range []float64{-1e-17, -5e-324} {
		if got := normalizeAlpha(a); got != 0 {
			t.Errorf("normalizeAlpha(%g) = %v, want 0", a, got)
		}
	}
}
