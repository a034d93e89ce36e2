package core

import (
	"math"
	"math/rand"
	"testing"

	"rfprism/internal/geom"
	"rfprism/internal/mathx"
	"rfprism/internal/rf"
)

// TestScratchCostsMatchReference: the scratch kernels are the solver's
// hot path and the package-level functions the reference — they must
// agree bit-for-bit, not approximately, or the precomputation changed
// the objective.
func TestScratchCostsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	obs := synthObs(testAnts, testAims, geom.Vec3{X: 0.9, Y: 1.4}, mathx.Rad(70), 1e-8, 2)
	obs3 := synthObs3D(geom.Vec3{X: 1.1, Y: 1.3, Z: 0.4}, rf.TagPolarization3D(0.8, 0.3), 0.5e-8, 1)
	prior := ktPrior{mean: rf.KtPhysicalMean, wp: 1 / (rf.KtPhysicalSigma * rf.KtPhysicalSigma)}
	sigmaB := 0.04
	sc := newCostScratch(obs, sigmaB, prior)
	sc3 := newCostScratch(obs3, sigmaB, prior)
	for i := 0; i < 50; i++ {
		p := geom.Vec3{X: rng.Float64() * 2, Y: 0.5 + rng.Float64()*2, Z: rng.Float64() * 0.8}
		cRef, ktRef := slopeCost(obs, p, prior)
		cGot, ktGot := sc.slopeCost(p)
		if cGot != cRef || ktGot != ktRef {
			t.Fatalf("slopeCost(%+v): scratch (%v, %v) != reference (%v, %v)", p, cGot, ktGot, cRef, ktRef)
		}
		p2 := []float64{p.X, p.Y, rng.Float64() * math.Pi, rng.Float64() * 2e-8, rng.Float64() * 2 * math.Pi}
		if got, ref := sc.jointCost2D(p2), jointCost2D(obs, p2, sigmaB, prior); got != ref {
			t.Fatalf("jointCost2D(%v): scratch %v != reference %v", p2, got, ref)
		}
		p3 := []float64{p.X, p.Y, p.Z, rng.Float64() * 2 * math.Pi, (rng.Float64() - 0.5) * math.Pi,
			rng.Float64() * 2e-8, rng.Float64() * 2 * math.Pi}
		if got, ref := sc3.jointCost3D(p3), jointCost3D(obs3, p3, sigmaB, prior); got != ref {
			t.Fatalf("jointCost3D(%v): scratch %v != reference %v", p3, got, ref)
		}
	}
}

// TestScratchPsiMatchesMakePsi: setPsi must fill exactly what makePsi
// allocates.
func TestScratchPsiMatchesMakePsi(t *testing.T) {
	obs := synthObs(testAnts, testAims, geom.Vec3{X: 1.2, Y: 1.1}, 0.4, 1e-8, 3)
	sc := newCostScratch(obs, 0.04, ktPrior{})
	for _, pos := range []geom.Vec3{{X: 0.4, Y: 0.9}, {X: 1.6, Y: 2.2}} {
		sc.setPsi(pos)
		ref := makePsi(obs, pos)
		for i := range ref {
			if sc.psi[i] != ref[i] {
				t.Fatalf("psi[%d] at %+v: %v != %v", i, pos, sc.psi[i], ref[i])
			}
		}
	}
}

// TestOrientTermMatchesOrientationPhase: the trig-free scan kernel must
// reproduce cos/sin of rf.OrientationPhase to rounding error.
func TestOrientTermMatchesOrientationPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		fr := geom.NewFrame(geom.Vec3{
			X: rng.Float64()*2 - 1, Y: rng.Float64()*2 - 1, Z: rng.Float64()*2 - 1,
		}.Unit())
		w := geom.FromSpherical(rng.Float64()*2*math.Pi, (rng.Float64()-0.5)*math.Pi)
		theta := rf.OrientationPhase(fr, w)
		st, ct := math.Sincos(theta)
		gotC, gotS := orientTerm(&fr, w)
		if math.Abs(gotC-ct) > 1e-12 || math.Abs(gotS-st) > 1e-12 {
			t.Fatalf("orientTerm: (%v, %v), want (%v, %v)", gotC, gotS, ct, st)
		}
	}
	// Degenerate case: tag orthogonal to the frame has θ = 0.
	fr := geom.NewFrame(geom.Vec3{X: 1})
	if c, s := orientTerm(&fr, fr.W); c != 1 || s != 0 {
		t.Fatalf("orthogonal tag: (%v, %v), want (1, 0)", c, s)
	}
}

// TestAdaptiveSigmaBScratchMatchesMedianRule: the in-place form must
// compute the exact historical widening rule.
func TestAdaptiveSigmaBScratchMatchesMedianRule(t *testing.T) {
	obs := synthObs(testAnts, testAims, geom.Vec3{X: 1, Y: 1.5}, 1, 0, 0)
	for i, r := range []float64{0.09, 0.02, 0.13} {
		obs[i].Line.ResidStd = r
	}
	sc := newCostScratch(obs, 0.04, ktPrior{})
	if got := sc.adaptiveSigmaB(0.04); got != 0.09 {
		t.Fatalf("adaptive σ_B = %v, want median 0.09", got)
	}
	if got := sc.adaptiveSigmaB(0.2); got != 0.2 {
		t.Fatalf("adaptive σ_B = %v, want floor 0.2", got)
	}
}

// TestKernelsZeroAlloc: the scratch kernels run inside the optimizer
// inner loops and the dense scans — a single allocation there
// multiplies by the tens of thousands of evaluations per solve.
func TestKernelsZeroAlloc(t *testing.T) {
	obs := synthObs(testAnts, testAims, geom.Vec3{X: 0.8, Y: 1.6}, 0.7, 1e-8, 2)
	obs3 := synthObs3D(geom.Vec3{X: 1.0, Y: 1.2, Z: 0.3}, rf.TagPolarization3D(1, 0.2), 0.5e-8, 1)
	sc := newCostScratch(obs, 0.04, ktPrior{mean: rf.KtPhysicalMean, wp: 1e18})
	sc3 := newCostScratch(obs3, 0.04, ktPrior{})
	p2 := []float64{0.8, 1.6, 0.7, 1e-8, 2}
	p3 := []float64{1.0, 1.2, 0.3, 1, 0.2, 0.5e-8, 1}
	r2, jac2 := make([]float64, 2*len(obs)+1), mathx.NewMat(2*len(obs)+1, 5)
	r3, jac3 := make([]float64, 2*len(obs3)+1), mathx.NewMat(2*len(obs3)+1, 7)
	pos := geom.Vec3{X: 1.1, Y: 1.4}
	sc.setPsi(pos)
	// Warm the lazily built tables before measuring.
	alphaGrid()
	polarRefineGrid()
	polarCoarseGrid()
	cases := []struct {
		name string
		fn   func()
	}{
		{"slopeCost", func() { sc.slopeCost(pos) }},
		{"jointCost2D", func() { sc.jointCost2D(p2) }},
		{"jointCost3D", func() { sc3.jointCost3D(p3) }},
		{"setPsi", func() { sc.setPsi(pos) }},
		{"scanOrient/alpha", func() { sc.scanOrient(alphaGrid()) }},
		{"scanOrient/polar", func() { sc3.setPsi(p3pos(p3)); sc3.scanOrient(polarRefineGrid()) }},
		{"adaptiveSigmaB", func() { sc.adaptiveSigmaB(0.04) }},
		{"jointResiduals2D", func() { sc.jointResiduals2D(p2, r2) }},
		{"jointJacobian2D", func() { sc.jointJacobian2D(p2, jac2) }},
		{"jointResiduals3D", func() { sc3.jointResiduals3D(p3, r3) }},
		{"jointJacobian3D", func() { sc3.jointJacobian3D(p3, jac3) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(10, c.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/run, want 0", c.name, allocs)
		}
	}
}

func p3pos(p []float64) geom.Vec3 { return geom.Vec3{X: p[0], Y: p[1], Z: p[2]} }

// TestVerifyEstimateAgreesWithSolveCost: verifying a solver's own
// output must reproduce (essentially) the solver's reported cost —
// that is what makes it usable as the cache's consistency check.
func TestVerifyEstimateAgreesWithSolveCost(t *testing.T) {
	obs := synthObs(testAnts, testAims, geom.Vec3{X: 1.0, Y: 1.5}, mathx.Rad(45), 1e-8, 2.0)
	est, err := Solve2D(obs, testBounds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := VerifyEstimate(obs, est, false, Options{})
	if math.Abs(v-est.Cost) > 1e-9*(1+math.Abs(est.Cost)) {
		t.Fatalf("VerifyEstimate = %v, solve cost = %v", v, est.Cost)
	}
}
