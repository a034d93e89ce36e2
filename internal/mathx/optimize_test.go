package mathx

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestLMLinearFit: LM must solve a linear least-squares problem
// exactly in one shot.
func TestLMLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 2
	}
	prob := LMProblem{
		NumResiduals: len(xs),
		NumParams:    2,
		Residuals: func(p, out []float64) {
			for i, x := range xs {
				out[i] = ys[i] - (p[0]*x + p[1])
			}
		},
		Jacobian: func(p []float64, j *Mat) {
			for i, x := range xs {
				j.Set(i, 0, -x)
				j.Set(i, 1, -1)
			}
		},
	}
	res, err := LevenbergMarquardt(prob, []float64{0, 0}, LMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Params[0]-3) > 1e-6 || math.Abs(res.Params[1]+2) > 1e-6 {
		t.Fatalf("params = %v", res.Params)
	}
	if !res.Converged {
		t.Error("did not report convergence")
	}
}

// TestLMExponentialFit: a genuinely nonlinear problem with noise.
func TestLMExponentialFit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const a, b = 2.5, -0.7
	n := 40
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) * 0.1
		ys[i] = a*math.Exp(b*xs[i]) + rng.NormFloat64()*0.01
	}
	prob := LMProblem{
		NumResiduals: n,
		NumParams:    2,
		Residuals: func(p, out []float64) {
			for i := range xs {
				out[i] = ys[i] - p[0]*math.Exp(p[1]*xs[i])
			}
		},
		Jacobian: func(p []float64, j *Mat) {
			for i, x := range xs {
				e := math.Exp(p[1] * x)
				j.Set(i, 0, -e)
				j.Set(i, 1, -p[0]*x*e)
			}
		},
	}
	res, err := LevenbergMarquardt(prob, []float64{1, 0}, LMOptions{})
	if err != nil && !errors.Is(err, ErrNoConvergence) {
		t.Fatal(err)
	}
	if math.Abs(res.Params[0]-a) > 0.05 || math.Abs(res.Params[1]-b) > 0.05 {
		t.Fatalf("params = %v, want ~[%g %g]", res.Params, a, b)
	}
}

// TestLMAnalyticJacobian: a solve driven by the analytic Jacobian
// must stop at a stationary point of the RSS, checked against a
// central-difference gradient computed independently of the solver.
func TestLMAnalyticJacobian(t *testing.T) {
	xs := []float64{0, 0.5, 1, 1.5, 2}
	ys := []float64{1, 1.8, 3.1, 5.2, 9.1}
	residuals := func(p, out []float64) {
		for i := range xs {
			out[i] = ys[i] - p[0]*math.Exp(p[1]*xs[i])
		}
	}
	prob := LMProblem{
		NumResiduals: len(xs),
		NumParams:    2,
		Residuals:    residuals,
		Jacobian: func(p []float64, j *Mat) {
			for i, x := range xs {
				e := math.Exp(p[1] * x)
				j.Set(i, 0, -e)
				j.Set(i, 1, -p[0]*x*e)
			}
		},
	}
	res, err := LevenbergMarquardt(prob, []float64{1, 0.5}, LMOptions{})
	if err != nil && !errors.Is(err, ErrNoConvergence) {
		t.Fatal(err)
	}
	rss := func(p []float64) float64 {
		r := make([]float64, len(xs))
		residuals(p, r)
		return dot(r, r)
	}
	const h = 1e-6
	for a := range res.Params {
		lo := append([]float64(nil), res.Params...)
		hi := append([]float64(nil), res.Params...)
		lo[a] -= h
		hi[a] += h
		if g := (rss(hi) - rss(lo)) / (2 * h); math.Abs(g) > 1e-4 {
			t.Fatalf("∂RSS/∂p%d = %g at %v, want a stationary point", a, g, res.Params)
		}
	}
}

func TestLMValidation(t *testing.T) {
	noop := func(p, out []float64) {}
	zero := func(p []float64, j *Mat) { clear(j.Data) }
	prob := LMProblem{NumResiduals: 1, NumParams: 2, Residuals: noop, Jacobian: zero}
	if _, err := LevenbergMarquardt(prob, []float64{1, 2}, LMOptions{}); err == nil {
		t.Fatal("underdetermined problem must error")
	}
	prob2 := LMProblem{NumResiduals: 3, NumParams: 2, Residuals: noop, Jacobian: zero}
	if _, err := LevenbergMarquardt(prob2, []float64{1}, LMOptions{}); err == nil {
		t.Fatal("p0 length mismatch must error")
	}
	if _, err := LevenbergMarquardt(LMProblem{NumResiduals: 3, NumParams: 2, Residuals: noop}, []float64{1, 2}, LMOptions{}); err == nil {
		t.Fatal("a problem without a Jacobian must error")
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-1)*(x[0]-1) + 10*(x[1]+2)*(x[1]+2)
	}
	best, val := NelderMead(f, []float64{5, 5}, 1, 2000)
	if math.Abs(best[0]-1) > 1e-3 || math.Abs(best[1]+2) > 1e-3 {
		t.Fatalf("NelderMead = %v (val %g)", best, val)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	best, _ := NelderMead(f, []float64{-1.2, 1}, 0.5, 4000)
	if math.Abs(best[0]-1) > 0.05 || math.Abs(best[1]-1) > 0.05 {
		t.Fatalf("Rosenbrock minimum = %v", best)
	}
}

func TestNelderMeadDegenerate(t *testing.T) {
	best, val := NelderMead(func(x []float64) float64 { return 42 }, []float64{1}, 0, 10)
	if len(best) != 1 || val != 42 {
		t.Fatalf("constant objective: %v %g", best, val)
	}
	if got, _ := NelderMead(func(x []float64) float64 { return 0 }, nil, 1, 10); got != nil {
		t.Fatalf("empty x0: %v", got)
	}
}

// TestNelderMeadAllocs pins the simplex to one slab: the vertex
// headers and one float64 slab per call, whatever the dimension.
func TestNelderMeadAllocs(t *testing.T) {
	f := func(x []float64) float64 {
		var s float64
		for i, v := range x {
			d := v - float64(i)
			s += d * d
		}
		return s
	}
	x0 := []float64{3, -1, 2, 0.5, 7}
	got := testing.AllocsPerRun(20, func() {
		NelderMead(f, x0, 0.5, 200)
	})
	if got != 2 {
		t.Fatalf("NelderMead allocates %v times per call, want 2", got)
	}
}

// expFitProblem is a noisy two-parameter exponential fit with an
// analytic Jacobian (the joint solver's shape: residuals and Jacobian
// written in place).
func expFitProblem() LMProblem {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 30)
	ys := make([]float64, len(xs))
	for i := range xs {
		xs[i] = float64(i) * 0.1
		ys[i] = 2.5*math.Exp(-0.7*xs[i]) + rng.NormFloat64()*0.01
	}
	return LMProblem{
		NumResiduals: len(xs),
		NumParams:    2,
		Residuals: func(p, out []float64) {
			for i, x := range xs {
				out[i] = ys[i] - p[0]*math.Exp(p[1]*x)
			}
		},
		Jacobian: func(p []float64, j *Mat) {
			for i, x := range xs {
				e := math.Exp(p[1] * x)
				j.Set(i, 0, -e)
				j.Set(i, 1, -p[0]*x*e)
			}
		},
	}
}

// TestLevenbergMarquardtAllocs pins the solver to one workspace and its
// slab per call, however many iterations it runs.
func TestLevenbergMarquardtAllocs(t *testing.T) {
	prob := expFitProblem()
	p0 := []float64{1, 0}
	var iters int
	got := testing.AllocsPerRun(20, func() {
		res, _ := LevenbergMarquardt(prob, p0, LMOptions{})
		iters = res.Iterations
	})
	if iters < 3 {
		t.Fatalf("fit converged in %d iterations; the pin needs a multi-iteration solve", iters)
	}
	if got != 2 {
		t.Fatalf("LevenbergMarquardt allocates %v times per call, want 2", got)
	}
}

// TestLMWorkspaceReuse: a workspace that has solved other problems
// gives bit-identical results to a fresh one and, once grown, solves
// without allocating.
func TestLMWorkspaceReuse(t *testing.T) {
	prob := expFitProblem()
	p0 := []float64{1, 0}
	fresh, err := LevenbergMarquardt(prob, p0, LMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var w LMWorkspace
	big := LMProblem{
		NumResiduals: 9, NumParams: 3,
		Residuals: func(p, out []float64) {
			for i := range out {
				out[i] = p[i%3]*float64(i) - 1
			}
		},
		Jacobian: func(p []float64, j *Mat) {
			clear(j.Data)
			for i := 0; i < j.Rows; i++ {
				j.Set(i, i%3, float64(i))
			}
		},
	}
	if _, err := w.Solve(big, []float64{5, -5, 5}, LMOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := w.Solve(prob, p0, LMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh.Params {
		if math.Float64bits(got.Params[i]) != math.Float64bits(fresh.Params[i]) {
			t.Fatalf("reused workspace: params %v, fresh %v", got.Params, fresh.Params)
		}
	}
	if got.RSS != fresh.RSS || got.Iterations != fresh.Iterations {
		t.Fatalf("reused workspace: RSS %v after %d, fresh %v after %d", got.RSS, got.Iterations, fresh.RSS, fresh.Iterations)
	}
	if a := testing.AllocsPerRun(20, func() { w.Solve(prob, p0, LMOptions{}) }); a != 0 {
		t.Fatalf("Solve on a grown workspace allocates %v times, want 0", a)
	}
}

// TestLMBoundsOvershoot: the first Gauss–Newton step of
// r(x) = log(1+x) − log(1.1) from x = 3 lands near x = −2.2, past the
// bound x ≥ 0 (and past the domain). The step must stop on the bound
// rather than leave the box, and the solve must walk back inside to
// the interior root x = 0.1 next to it.
func TestLMBoundsOvershoot(t *testing.T) {
	prob := LMProblem{
		NumResiduals: 1, NumParams: 1,
		Residuals: func(p, out []float64) { out[0] = math.Log1p(p[0]) - math.Log(1.1) },
		Jacobian:  func(p []float64, j *Mat) { j.Set(0, 0, 1/(1+p[0])) },
		Lower:     []float64{0},
		Upper:     []float64{math.Inf(1)},
	}
	first, _ := LevenbergMarquardt(prob, []float64{3}, LMOptions{MaxIterations: 1})
	if first.Params[0] != 0 {
		t.Fatalf("first step ends at x = %v, want it stopped on the bound 0", first.Params[0])
	}
	res, err := LevenbergMarquardt(prob, []float64{3}, LMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Params[0]-0.1) > 1e-9 {
		t.Fatalf("x = %v, want the interior root 0.1", res.Params[0])
	}
	// A start outside the box is clamped onto it first.
	if res, _ := LevenbergMarquardt(prob, []float64{-0.5}, LMOptions{}); math.Abs(res.Params[0]-0.1) > 1e-9 {
		t.Fatalf("start below the bound: x = %v, want 0.1", res.Params[0])
	}
	prob.Lower = []float64{0, 0}
	if _, err := LevenbergMarquardt(prob, []float64{3}, LMOptions{}); err == nil {
		t.Fatal("bounds of the wrong length accepted")
	}
}

// TestLMBoundActiveSet: the minimum of (x+1)² + (y−1−10x)² over x ≥ 0
// is (0, 1), on the bound. Started on the bound, x must be held there
// (the descent direction points out of the box) while y takes the full
// Gauss–Newton step, so the solve reaches the minimum in a few iterations instead
// of creeping along the bound under growing damping.
func TestLMBoundActiveSet(t *testing.T) {
	prob := LMProblem{
		NumResiduals: 2, NumParams: 2,
		Residuals: func(p, out []float64) {
			out[0] = p[0] + 1
			out[1] = p[1] - 1 - 10*p[0]
		},
		Jacobian: func(p []float64, j *Mat) {
			j.Set(0, 0, 1)
			j.Set(0, 1, 0)
			j.Set(1, 0, -10)
			j.Set(1, 1, 1)
		},
		Lower: []float64{0, math.Inf(-1)},
	}
	res, err := LevenbergMarquardt(prob, []float64{0, 0}, LMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Params[0] != 0 || math.Abs(res.Params[1]-1) > 1e-9 || res.Iterations > 4 {
		t.Fatalf("minimum (0, 1): got %v after %d iterations", res.Params, res.Iterations)
	}
}
