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
	}
	res, err := LevenbergMarquardt(prob, []float64{1, 0}, LMOptions{})
	if err != nil && !errors.Is(err, ErrNoConvergence) {
		t.Fatal(err)
	}
	if math.Abs(res.Params[0]-a) > 0.05 || math.Abs(res.Params[1]-b) > 0.05 {
		t.Fatalf("params = %v, want ~[%g %g]", res.Params, a, b)
	}
}

// TestLMAnalyticJacobian: providing the Jacobian must give the same
// answer as finite differences.
func TestLMAnalyticJacobian(t *testing.T) {
	xs := []float64{0, 0.5, 1, 1.5, 2}
	ys := []float64{1, 1.8, 3.1, 5.2, 9.1}
	mk := func(jac func(p []float64, j *Mat)) []float64 {
		prob := LMProblem{
			NumResiduals: len(xs),
			NumParams:    2,
			Jacobian:     jac,
			Residuals: func(p, out []float64) {
				for i := range xs {
					out[i] = ys[i] - p[0]*math.Exp(p[1]*xs[i])
				}
			},
		}
		res, err := LevenbergMarquardt(prob, []float64{1, 0.5}, LMOptions{})
		if err != nil && !errors.Is(err, ErrNoConvergence) {
			t.Fatal(err)
		}
		return res.Params
	}
	numeric := mk(nil)
	analytic := mk(func(p []float64, j *Mat) {
		for i, x := range xs {
			e := math.Exp(p[1] * x)
			j.Set(i, 0, -e)
			j.Set(i, 1, -p[0]*x*e)
		}
	})
	for i := range numeric {
		if math.Abs(numeric[i]-analytic[i]) > 1e-3 {
			t.Fatalf("numeric %v vs analytic %v", numeric, analytic)
		}
	}
}

func TestLMValidation(t *testing.T) {
	prob := LMProblem{NumResiduals: 1, NumParams: 2, Residuals: func(p, out []float64) {}}
	if _, err := LevenbergMarquardt(prob, []float64{1, 2}, LMOptions{}); err == nil {
		t.Fatal("underdetermined problem must error")
	}
	prob2 := LMProblem{NumResiduals: 3, NumParams: 2, Residuals: func(p, out []float64) {}}
	if _, err := LevenbergMarquardt(prob2, []float64{1}, LMOptions{}); err == nil {
		t.Fatal("p0 length mismatch must error")
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
		NelderMeadOpt(f, x0, 0.5, NMOptions{MaxIter: 200})
	})
	if got != 2 {
		t.Fatalf("NelderMeadOpt allocates %v times per call, want 2", got)
	}
}
