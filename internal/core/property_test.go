package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rfprism/internal/geom"
	"rfprism/internal/mathx"
)

// TestSolve2DRoundTripProperty: for random tag states the solver must
// invert the noiseless forward model (the defining property of a
// disentangler). Uses the unbiased (prior-free) configuration.
func TestSolve2DRoundTripProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep too slow for -short")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pos := geom.Vec3{
			X: 0.25 + rng.Float64()*1.5,
			Y: 0.75 + rng.Float64()*1.5,
		}
		alpha := rng.Float64() * math.Pi
		kt := rng.Float64() * 2e-8
		bt0 := rng.Float64() * 2 * math.Pi
		obs := synthObs(testAnts, testAims, pos, alpha, kt, bt0)
		est, err := Solve2D(obs, testBounds, Options{NoKtPrior: true})
		if err != nil {
			return false
		}
		if est.Pos.Dist(pos) > 0.02 {
			return false
		}
		if math.Abs(mathx.AngDiffPeriod(est.Alpha, alpha, math.Pi)) > mathx.Rad(3) {
			return false
		}
		return math.Abs(est.Kt-kt) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSolve2DTranslationConsistency: shifting the whole geometry (tag
// and antennas) must shift the estimate identically — the solver has
// no absolute-frame dependence beyond the supplied coordinates.
func TestSolve2DTranslationConsistency(t *testing.T) {
	shift := geom.Vec3{X: 0.2, Y: 0.3}
	pos := geom.Vec3{X: 0.9, Y: 1.4}
	alpha := mathx.Rad(70)

	base := synthObs(testAnts, testAims, pos, alpha, 1e-8, 2)
	estA, err := Solve2D(base, testBounds, Options{NoKtPrior: true})
	if err != nil {
		t.Fatal(err)
	}

	shiftedAnts := make([]geom.Vec3, len(testAnts))
	shiftedAims := make([]geom.Vec3, len(testAims))
	for i := range testAnts {
		shiftedAnts[i] = testAnts[i].Add(shift)
		shiftedAims[i] = testAims[i].Add(shift)
	}
	shiftedBounds := testBounds
	shiftedBounds.XMin += shift.X
	shiftedBounds.XMax += shift.X
	shiftedBounds.YMin += shift.Y
	shiftedBounds.YMax += shift.Y
	moved := synthObs(shiftedAnts, shiftedAims, pos.Add(shift), alpha, 1e-8, 2)
	estB, err := Solve2D(moved, shiftedBounds, Options{NoKtPrior: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := estB.Pos.Sub(shift).Dist(estA.Pos); d > 0.01 {
		t.Fatalf("translation inconsistency: %.4f m", d)
	}
	if oe := math.Abs(mathx.AngDiffPeriod(estA.Alpha, estB.Alpha, math.Pi)); mathx.Deg(oe) > 1 {
		t.Fatalf("translation changed orientation by %.2f°", mathx.Deg(oe))
	}
}
