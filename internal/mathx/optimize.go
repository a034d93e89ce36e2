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
	// ∂r_i/∂p_j at p, writing every entry: j is reused across
	// iterations. When nil, a forward-difference approximation is
	// used.
	Jacobian func(p []float64, j *Mat)
	// Step is the finite-difference step per parameter for the
	// numeric Jacobian. When empty, 1e-7 relative steps are used.
	Step []float64
	// Lower and Upper optionally bound p elementwise (nil leaves every
	// parameter free, an infinite entry leaves one free). The start and
	// every trial step are clamped into the box, and a parameter on a
	// bound that the descent direction pushes outward is held for that
	// iteration while the others take the step, so a bounded parameter
	// never sits outside the box with a dead Jacobian column and moves
	// back inside as soon as the gradient turns.
	Lower, Upper []float64
}

// project clamps p into the problem's bounds in place.
func (prob *LMProblem) project(p []float64) {
	for a := range p {
		if prob.Lower != nil && p[a] < prob.Lower[a] {
			p[a] = prob.Lower[a]
		}
		if prob.Upper != nil && p[a] > prob.Upper[a] {
			p[a] = prob.Upper[a]
		}
	}
}

// held reports whether parameter a sits on a bound that the descent
// direction −g (g the gradient component Jᵀr) would carry it past.
func (prob *LMProblem) held(a int, pa, g float64) bool {
	return (prob.Lower != nil && pa <= prob.Lower[a] && g > 0) ||
		(prob.Upper != nil && pa >= prob.Upper[a] && g < 0)
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
	// Target, when positive, stops the solve as soon as the RSS is
	// ≤ Target: callers that only need "good enough" (a warm-started
	// solve matching its previous window's cost) stop paying for
	// iterations a later pass would redo anyway.
	Target float64
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

// lmMaxDampings bounds the damping increases of one iteration: λ grows
// tenfold per rejected step, so twelve rejections mean the step has
// shrunk to noise and p is a (possibly local) minimum.
const lmMaxDampings = 12

// LMWorkspace holds the working storage of LevenbergMarquardt, so a
// caller running many solves can reuse it. The zero value is ready to
// use and grows to fit the largest problem it has solved. A workspace
// must not be used by two solves at once.
type LMWorkspace struct {
	slab []float64
	jac  Mat
}

// LevenbergMarquardt minimizes ‖r(p)‖² starting from p0 in a fresh
// workspace; see LMWorkspace.Solve.
func LevenbergMarquardt(prob LMProblem, p0 []float64, opts LMOptions) (LMResult, error) {
	var w LMWorkspace
	return w.Solve(prob, p0, opts)
}

// Solve minimizes ‖r(p)‖² starting from p0. It returns the
// best parameters found even when reporting ErrNoConvergence so callers
// can decide whether the partial answer is usable.
//
// Each iteration solves the Marquardt-scaled normal equations
// (JᵀJ + λ·diag(JᵀJ))·δ = −Jᵀr. They are solved in the Jacobi-scaled
// form (D⁻¹JᵀJD⁻¹ + λI)·y = −D⁻¹Jᵀr with D = sqrt(diag(JᵀJ)), δ = D⁻¹y,
// so parameters of very different scales (meters next to rad/Hz) factor
// as well as unit-scaled ones. A zero Jacobian column (a parameter the
// residuals do not depend on) gets D = 1 and therefore δ = 0.
//
// All working storage — parameters, residuals, Jacobian, normal
// equations and the Cholesky factor — lives in the workspace's slab,
// which every solve overwrites before reading, so the iteration loop
// allocates nothing and a reused workspace gives bit-identical results.
// LMResult.Params points into the slab and is valid until the
// workspace's next solve.
func (w *LMWorkspace) Solve(prob LMProblem, p0 []float64, opts LMOptions) (LMResult, error) {
	opts.defaults()
	if prob.NumParams != len(p0) {
		return LMResult{}, fmt.Errorf("mathx: p0 length %d, want %d", len(p0), prob.NumParams)
	}
	if prob.NumResiduals < prob.NumParams {
		return LMResult{}, fmt.Errorf("mathx: %d residuals cannot determine %d parameters", prob.NumResiduals, prob.NumParams)
	}

	n, m := prob.NumParams, prob.NumResiduals
	if (prob.Lower != nil && len(prob.Lower) != n) || (prob.Upper != nil && len(prob.Upper) != n) {
		return LMResult{}, fmt.Errorf("mathx: bounds of length %d/%d, want %d", len(prob.Lower), len(prob.Upper), n)
	}
	bounded := prob.Lower != nil || prob.Upper != nil
	size := 7*n + 3*m + m*n + 2*n*n
	if cap(w.slab) < size {
		w.slab = make([]float64, size)
	}
	slab := w.slab[:size]
	take := func(k int) []float64 {
		s := slab[:k:k]
		slab = slab[k:]
		return s
	}
	p, pTrial, jtr, scale, delta, y, pt := take(n), take(n), take(n), take(n), take(n), take(n), take(n)
	r, rTrial, rt := take(m), take(m), take(m)
	w.jac = Mat{Rows: m, Cols: n, Data: take(m * n)}
	jac := &w.jac
	jtj, chol := take(n*n), take(n*n)
	copy(p, p0)
	prob.project(p)

	prob.Residuals(p, r)
	rss := dot(r, r)
	lambda := opts.InitialLambda

	res := LMResult{Params: p, RSS: rss}
	for iter := 0; iter < opts.MaxIterations; iter++ {
		if opts.Target > 0 && rss <= opts.Target {
			res.RSS, res.Converged = rss, true
			return res, nil
		}
		res.Iterations = iter + 1
		evalJacobian(prob, p, r, jac, pt, rt)

		// Normal equations JᵀJ and Jᵀr, upper triangle accumulated row
		// by row.
		clear(jtj)
		clear(jtr)
		for i := 0; i < m; i++ {
			row := jac.Data[i*n : (i+1)*n]
			ri := r[i]
			for a := 0; a < n; a++ {
				jtr[a] += row[a] * ri
				for b := a; b < n; b++ {
					jtj[a*n+b] += row[a] * row[b]
				}
			}
		}
		// Active set: a parameter held on its bound gets an identity
		// row and a zero right-hand side, hence δ = 0, and the rest
		// solve the reduced system.
		if bounded {
			for a := 0; a < n; a++ {
				if prob.held(a, p[a], jtr[a]) {
					for b := 0; b < n; b++ {
						jtj[a*n+b], jtj[b*n+a] = 0, 0
					}
					jtj[a*n+a], jtr[a] = 1, 0
				}
			}
		}
		// Jacobi scaling: jtj becomes D⁻¹JᵀJD⁻¹ and jtr becomes D⁻¹Jᵀr.
		for a := 0; a < n; a++ {
			scale[a] = 1
			if d := jtj[a*n+a]; d > 0 {
				scale[a] = math.Sqrt(d)
			}
		}
		for a := 0; a < n; a++ {
			for b := a; b < n; b++ {
				v := jtj[a*n+b] / (scale[a] * scale[b])
				jtj[a*n+b], jtj[b*n+a] = v, v
			}
			jtr[a] /= scale[a]
		}

		improved := false
		for attempt := 0; attempt < lmMaxDampings; attempt++ {
			copy(chol, jtj)
			for a := 0; a < n; a++ {
				chol[a*n+a] += lambda
				y[a] = -jtr[a]
			}
			if !choleskyFactor(chol, n) {
				lambda *= 10
				continue
			}
			choleskySolve(chol, n, y, y)
			for a := 0; a < n; a++ {
				delta[a] = y[a] / scale[a]
				pTrial[a] = p[a] + delta[a]
			}
			if bounded {
				prob.project(pTrial)
				for a := 0; a < n; a++ {
					delta[a] = pTrial[a] - p[a]
				}
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
					res.RSS, res.Converged = rss, true
					return res, nil
				}
				break
			}
			lambda *= 10
		}
		if !improved {
			// Damping saturated: we are at a (possibly local) minimum.
			res.RSS, res.Converged = rss, true
			return res, nil
		}
	}
	res.RSS = rss
	if opts.Target > 0 && rss <= opts.Target {
		res.Converged = true
		return res, nil
	}
	return res, ErrNoConvergence
}

// evalJacobian fills jac at p, analytically when the problem has a
// Jacobian and by forward differences otherwise; pt and rt are the
// difference scratch (lengths NumParams and NumResiduals).
func evalJacobian(prob LMProblem, p, r []float64, jac *Mat, pt, rt []float64) {
	if prob.Jacobian != nil {
		prob.Jacobian(p, jac)
		return
	}
	n, m := prob.NumParams, prob.NumResiduals
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

// NelderMead minimizes f starting from x0 with the given initial
// simplex scale and iteration budget (default 500). It is used for the
// stages whose objectives have no convenient derivatives: the
// slope-only position refinements, the polarization refinement and the
// final fine pass over the joint objective.
func NelderMead(f func([]float64) float64, x0 []float64, scale float64, maxIter int) ([]float64, float64) {
	n := len(x0)
	if n == 0 {
		return nil, f(nil)
	}
	if scale <= 0 {
		scale = 0.1
	}
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
