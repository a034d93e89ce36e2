package core

import (
	"math"
	"math/rand"
	"testing"

	"rfprism/internal/geom"
	"rfprism/internal/mathx"
	"rfprism/internal/rf"
)

// jointKernels is one mode's least-squares form of the joint objective.
type jointKernels struct {
	resid func(p, out []float64)
	jac   func(p []float64, j *mathx.Mat)
	cost  func(p []float64) float64
	steps []float64 // central-difference step per parameter
}

// checkJointKernels compares the residuals against the joint cost and
// the analytic Jacobian against central differences at p, which must
// lie away from the intercept wrap jumps.
func checkJointKernels(t *testing.T, sc *solveScratch, k jointKernels, p []float64) {
	t.Helper()
	n := len(sc.obs)
	m := 2*n + 1
	r := make([]float64, m)
	k.resid(p, r)
	var rss float64
	for _, v := range r {
		rss += v * v
	}
	if c := k.cost(p); math.Abs(rss-c) > 1e-12*c {
		t.Fatalf("p %v: Σr² = %v, joint cost %v", p, rss, c)
	}
	jac := mathx.NewMat(m, len(p))
	k.jac(p, jac)
	rp, rm := make([]float64, m), make([]float64, m)
	q := make([]float64, len(p))
	for j, h := range k.steps {
		copy(q, p)
		q[j] = p[j] + h
		k.resid(q, rp)
		q[j] = p[j] - h
		k.resid(q, rm)
		for i := 0; i < m; i++ {
			num := (rp[i] - rm[i]) / (2 * h)
			got := jac.At(i, j)
			if math.Abs(got-num) > 1e-5*(math.Abs(num)+1) {
				t.Fatalf("p %v: ∂r[%d]/∂p[%d] analytic %v, central difference %v", p, i, j, got, num)
			}
		}
	}
}

// awayFromWraps reports whether every intercept residual at r is at
// least margin (rad, unscaled) inside (−π, π).
func awayFromWraps(sc *solveScratch, r []float64, margin float64) bool {
	n := len(sc.obs)
	for i := 0; i < n; i++ {
		if math.Abs(r[n+i]/sc.rwb[i]) > math.Pi-margin {
			return false
		}
	}
	return true
}

// TestJointJacobian2D: the closed-form Jacobian of the 2D residuals
// must match central differences at seeded interior points, and the
// residuals' sum of squares must be the joint cost.
func TestJointJacobian2D(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	obs := synthObs(testAnts, testAims, geom.Vec3{X: 0.9, Y: 1.4}, mathx.Rad(70), 1e-8, 2)
	obs[1].Weight = 0.6
	sc := newCostScratch(obs, 0.05, ktPrior{mean: rf.KtPhysicalMean, wp: 1 / (rf.KtPhysicalSigma * rf.KtPhysicalSigma)})
	k := jointKernels{
		resid: sc.jointResiduals2D,
		jac:   sc.jointJacobian2D,
		cost:  sc.jointCost2D,
		steps: []float64{1e-6, 1e-6, 1e-6, 1e-15, 1e-6},
	}
	r := make([]float64, 2*len(obs)+1)
	for checked := 0; checked < 40; {
		p := []float64{0.1 + 1.8*rng.Float64(), 0.6 + 1.8*rng.Float64(), rng.Float64() * math.Pi,
			rng.Float64() * 2e-8, rng.Float64() * 2 * math.Pi}
		k.resid(p, r)
		if !awayFromWraps(sc, r, 0.1) {
			continue
		}
		checkJointKernels(t, sc, k, p)
		checked++
	}
}

// TestJointJacobian3D is TestJointJacobian2D for the seven-unknown
// model, covering the azimuth and elevation columns.
func TestJointJacobian3D(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	obs := synthObs3D(geom.Vec3{X: 1.1, Y: 1.3, Z: 0.4}, rf.TagPolarization3D(0.8, 0.3), 0.5e-8, 1)
	sc := newCostScratch(obs, 0.04, ktPrior{mean: rf.KtPhysicalMean, wp: 1 / (rf.KtPhysicalSigma * rf.KtPhysicalSigma)})
	k := jointKernels{
		resid: sc.jointResiduals3D,
		jac:   sc.jointJacobian3D,
		cost:  sc.jointCost3D,
		steps: []float64{1e-6, 1e-6, 1e-6, 1e-6, 1e-6, 1e-15, 1e-6},
	}
	r := make([]float64, 2*len(obs)+1)
	for checked := 0; checked < 40; {
		p := []float64{0.1 + 1.8*rng.Float64(), 0.6 + 1.8*rng.Float64(), 0.05 + 0.7*rng.Float64(),
			rng.Float64() * 2 * math.Pi, (rng.Float64() - 0.5) * 0.9 * math.Pi,
			rng.Float64() * 2e-8, rng.Float64() * 2 * math.Pi}
		k.resid(p, r)
		if !awayFromWraps(sc, r, 0.1) {
			continue
		}
		checkJointKernels(t, sc, k, p)
		checked++
	}
}

// TestRunJoint2DLeavesBound: a start outside the region (as an
// ambiguity probe clamped past the edge can be) is moved
// onto the bound and must still walk inside to a tag 2 cm from the
// edge, instead of staying pinned on the bound.
func TestRunJoint2DLeavesBound(t *testing.T) {
	truth := geom.Vec3{X: 1.1, Y: testBounds.YMin + 0.02}
	alpha, kt, bt0 := mathx.Rad(40), 1e-8, 2.0
	obs := synthObs(testAnts, testAims, truth, alpha, kt, bt0)
	sc := newCostScratch(obs, 0.04, ktPrior{})
	for _, y0 := range []float64{testBounds.YMin - 0.1, testBounds.YMin} {
		est := runJoint2D(sc, []float64{truth.X, y0, alpha, kt, bt0}, testBounds, jointIters2D)
		if d := est.Pos.Dist(truth); d > 1e-3 {
			t.Fatalf("start y %.2f: estimate %v is %.1f mm from the tag %v", y0, est.Pos, d*1e3, truth)
		}
	}
}
