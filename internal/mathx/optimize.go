package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned when an iterative solver exhausts its
// iteration budget without satisfying its tolerance.
var ErrNoConvergence = errors.New("mathx: no convergence")

// LMProblem describes a nonlinear least-squares problem
// minimize ‖r(p)‖² for the Levenberg–Marquardt solver.
type LMProblem struct {
	// Residuals evaluates the residual vector at parameter vector p,
	// writing into out (length NumResiduals).
	Residuals func(p, out []float64)
	// NumResiduals is the length of the residual vector.
	NumResiduals int
	// NumParams is the length of the parameter vector.
	NumParams int
	// Jacobian optionally fills j (NumResiduals×NumParams) with
	// ∂r_i/∂p_j at p. When nil, a forward-difference approximation
	// is used.
	Jacobian func(p []float64, j *Mat)
	// Step is the finite-difference step per parameter for the
	// numeric Jacobian. When empty, 1e-7 relative steps are used.
	Step []float64
}

// LMResult reports the outcome of a Levenberg–Marquardt run.
type LMResult struct {
	Params     []float64
	RSS        float64 // residual sum of squares at Params
	Iterations int
	Converged  bool
}

// LMOptions tunes the Levenberg–Marquardt solver. The zero value picks
// sensible defaults.
type LMOptions struct {
	MaxIterations int     // default 200
	TolRSS        float64 // relative RSS improvement tolerance, default 1e-12
	TolStep       float64 // parameter step tolerance, default 1e-12
	InitialLambda float64 // initial damping, default 1e-3
}

func (o *LMOptions) defaults() {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 200
	}
	if o.TolRSS <= 0 {
		o.TolRSS = 1e-12
	}
	if o.TolStep <= 0 {
		o.TolStep = 1e-12
	}
	if o.InitialLambda <= 0 {
		o.InitialLambda = 1e-3
	}
}

// LevenbergMarquardt minimizes ‖r(p)‖² starting from p0. It returns the
// best parameters found even when reporting ErrNoConvergence so callers
// can decide whether the partial answer is usable.
func LevenbergMarquardt(prob LMProblem, p0 []float64, opts LMOptions) (LMResult, error) {
	opts.defaults()
	if prob.NumParams != len(p0) {
		return LMResult{}, fmt.Errorf("mathx: p0 length %d, want %d", len(p0), prob.NumParams)
	}
	if prob.NumResiduals < prob.NumParams {
		return LMResult{}, fmt.Errorf("mathx: %d residuals cannot determine %d parameters", prob.NumResiduals, prob.NumParams)
	}

	n, m := prob.NumParams, prob.NumResiduals
	p := make([]float64, n)
	copy(p, p0)
	r := make([]float64, m)
	rTrial := make([]float64, m)
	pTrial := make([]float64, n)
	jac := NewMat(m, n)

	prob.Residuals(p, r)
	rss := dot(r, r)
	lambda := opts.InitialLambda

	res := LMResult{Params: p, RSS: rss}
	for iter := 0; iter < opts.MaxIterations; iter++ {
		res.Iterations = iter + 1
		evalJacobian(prob, p, r, jac)

		// Normal equations: (JᵀJ + λ·diag(JᵀJ))·δ = -Jᵀr
		jtj := NewMat(n, n)
		jtr := make([]float64, n)
		for i := 0; i < m; i++ {
			row := jac.Data[i*n : (i+1)*n]
			ri := r[i]
			for a := 0; a < n; a++ {
				jtr[a] += row[a] * ri
				for b := a; b < n; b++ {
					jtj.Add(a, b, row[a]*row[b])
				}
			}
		}
		for a := 0; a < n; a++ {
			for b := 0; b < a; b++ {
				jtj.Set(a, b, jtj.At(b, a))
			}
		}

		improved := false
		for attempt := 0; attempt < 12; attempt++ {
			damped := jtj.Clone()
			for a := 0; a < n; a++ {
				d := jtj.At(a, a)
				if d == 0 {
					d = 1e-12
				}
				damped.Add(a, a, lambda*d)
			}
			rhs := make([]float64, n)
			for a := 0; a < n; a++ {
				rhs[a] = -jtr[a]
			}
			delta, err := SolveCholesky(damped, rhs)
			if err != nil {
				lambda *= 10
				continue
			}
			for a := 0; a < n; a++ {
				pTrial[a] = p[a] + delta[a]
			}
			prob.Residuals(pTrial, rTrial)
			rssTrial := dot(rTrial, rTrial)
			if rssTrial < rss {
				stepNorm := norm(delta)
				rel := (rss - rssTrial) / math.Max(rss, 1e-300)
				copy(p, pTrial)
				copy(r, rTrial)
				rss = rssTrial
				lambda = math.Max(lambda/10, 1e-12)
				improved = true
				if rel < opts.TolRSS || stepNorm < opts.TolStep {
					res.Params, res.RSS, res.Converged = p, rss, true
					return res, nil
				}
				break
			}
			lambda *= 10
		}
		if !improved {
			// Damping saturated: we are at a (possibly local) minimum.
			res.Params, res.RSS, res.Converged = p, rss, true
			return res, nil
		}
	}
	res.Params, res.RSS = p, rss
	return res, ErrNoConvergence
}

func evalJacobian(prob LMProblem, p, r []float64, jac *Mat) {
	if prob.Jacobian != nil {
		prob.Jacobian(p, jac)
		return
	}
	n, m := prob.NumParams, prob.NumResiduals
	pt := make([]float64, n)
	rt := make([]float64, m)
	copy(pt, p)
	for j := 0; j < n; j++ {
		h := 1e-7 * math.Max(math.Abs(p[j]), 1)
		if prob.Step != nil && j < len(prob.Step) && prob.Step[j] > 0 {
			h = prob.Step[j]
		}
		pt[j] = p[j] + h
		prob.Residuals(pt, rt)
		pt[j] = p[j]
		inv := 1 / h
		for i := 0; i < m; i++ {
			jac.Set(i, j, (rt[i]-r[i])*inv)
		}
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

func norm(a []float64) float64 {
	return math.Sqrt(dot(a, a))
}

// NMOptions tunes NelderMeadOpt beyond the basic iteration budget.
type NMOptions struct {
	// MaxIter is the iteration budget. Default 500.
	MaxIter int
	// Target, when positive, terminates the search as soon as the best
	// simplex value is ≤ Target: callers that only need "good enough"
	// (e.g. a warm-started solve matching its previous window's cost)
	// stop paying for iterations a later fine pass would redo anyway.
	Target float64
	// Stop, when non-nil, is consulted after every completed iteration
	// with the iteration index and the best value found so far;
	// returning true terminates the search early. It must be a pure
	// function of its arguments for runs to stay deterministic.
	Stop func(iter int, best float64) bool
}

// NelderMead minimizes f starting from x0 with the given initial
// simplex scale. It is used for the coarse stages where gradients are
// unreliable (e.g. wrapped-phase objectives far from the optimum).
func NelderMead(f func([]float64) float64, x0 []float64, scale float64, maxIter int) ([]float64, float64) {
	return NelderMeadOpt(f, x0, scale, NMOptions{MaxIter: maxIter})
}

// NelderMeadOpt is NelderMead with an early-termination contract: the
// search additionally stops once opts.Target is reached or opts.Stop
// asks for it (see NMOptions). With a zero NMOptions it is exactly
// NelderMead.
func NelderMeadOpt(f func([]float64) float64, x0 []float64, scale float64, opts NMOptions) ([]float64, float64) {
	n := len(x0)
	if n == 0 {
		return nil, f(nil)
	}
	if scale <= 0 {
		scale = 0.1
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 500
	}
	// One slab holds the n+1 vertices, their values, the centroid,
	// the two trial points and the returned best point.
	slab := make([]float64, (n+5)*n+n+1)
	vec := func(i int) []float64 { return slab[i*n : (i+1)*n : (i+1)*n] }
	vals := slab[(n+5)*n:]
	centroid, trial, expand, best := vec(n+1), vec(n+2), vec(n+3), vec(n+4)
	// Initial simplex.
	pts := make([][]float64, n+1)
	for i := range pts {
		p := vec(i)
		copy(p, x0)
		if i > 0 {
			p[i-1] += scale
		}
		pts[i] = p
		vals[i] = f(p)
	}
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	order := func() {
		for i := 1; i < len(pts); i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
				pts[j], pts[j-1] = pts[j-1], pts[j]
			}
		}
	}
	for iter := 0; iter < maxIter; iter++ {
		order()
		if math.Abs(vals[n]-vals[0]) < 1e-14*(math.Abs(vals[0])+1e-14) {
			break
		}
		if opts.Target > 0 && vals[0] <= opts.Target {
			break
		}
		if opts.Stop != nil && opts.Stop(iter, vals[0]) {
			break
		}
		for j := range centroid {
			var s float64
			for i := 0; i < n; i++ {
				s += pts[i][j]
			}
			centroid[j] = s / float64(n)
		}
		// Reflection.
		for j := 0; j < n; j++ {
			trial[j] = centroid[j] + alpha*(centroid[j]-pts[n][j])
		}
		fr := f(trial)
		switch {
		case fr < vals[0]:
			// Expansion.
			for j := 0; j < n; j++ {
				expand[j] = centroid[j] + gamma*(trial[j]-centroid[j])
			}
			fe := f(expand)
			if fe < fr {
				copy(pts[n], expand)
				vals[n] = fe
			} else {
				copy(pts[n], trial)
				vals[n] = fr
			}
		case fr < vals[n-1]:
			copy(pts[n], trial)
			vals[n] = fr
		default:
			// Contraction.
			for j := 0; j < n; j++ {
				trial[j] = centroid[j] + rho*(pts[n][j]-centroid[j])
			}
			fc := f(trial)
			if fc < vals[n] {
				copy(pts[n], trial)
				vals[n] = fc
			} else {
				// Shrink toward best.
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						pts[i][j] = pts[0][j] + sigma*(pts[i][j]-pts[0][j])
					}
					vals[i] = f(pts[i])
				}
			}
		}
	}
	order()
	copy(best, pts[0])
	return best, vals[0]
}
