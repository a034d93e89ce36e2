package core

import (
	"errors"
	"fmt"
	"math"

	"rfprism/internal/geom"
	"rfprism/internal/mathx"
)

// ErrConfidence is wrapped by every EvaluateConfidence failure.
var ErrConfidence = errors.New("core: confidence evaluation failed")

// z90 is the two-sided 90% normal quantile: P(|Z| < z90) = 0.90.
const z90 = 1.6448536269514722

// t90 returns the two-sided 90% Student-t quantile for dof residual
// degrees of freedom. The covariance is inflated by a variance
// estimate s² = cost/dof computed from very few equations, so the
// interval half-widths must carry the small-sample penalty — with
// dof=3 (four antennas, 2D) the honest quantile is 2.35, not 1.64.
func t90(dof float64) float64 {
	table := []struct{ nu, q float64 }{
		{1, 6.3138}, {2, 2.9200}, {3, 2.3534}, {4, 2.1318},
		{5, 2.0150}, {6, 1.9432}, {7, 1.8946}, {8, 1.8595},
		{10, 1.8125}, {12, 1.7823}, {15, 1.7531}, {20, 1.7247},
		{30, 1.6973}, {60, 1.6706}, {120, 1.6577},
	}
	if dof <= table[0].nu {
		return table[0].q
	}
	for i := 1; i < len(table); i++ {
		if dof <= table[i].nu {
			lo, hi := table[i-1], table[i]
			f := (dof - lo.nu) / (hi.nu - lo.nu)
			return lo.q + f*(hi.q-lo.q)
		}
	}
	return z90
}

// Confidence is the likelihood-level description of one estimate: the
// local curvature of the joint objective at the optimum turned into a
// covariance, plus the explicit 2π-ambiguity score the wrap-basin
// multistart otherwise resolves silently. The joint cost is 2× the
// negative log-likelihood of the phase observations under the
// per-antenna noise model (slope σ_k from the line fit, intercept σ_B
// after adaptive widening), so the observed Fisher information is
// H/2 and Cov = 2·H⁻¹.
type Confidence struct {
	// Cov is the parameter covariance at the optimum, row-major over
	// the solver's parameter order: (x, y, α, k_t, b_t) for 2D,
	// (x, y, z, az, el, k_t, b_t) for 3D. Positive-semidefinite by
	// construction (inverse of a jittered-Cholesky-factored Hessian).
	Cov *mathx.Mat
	// Sigma is sqrt(diag(Cov)) in the same parameter order.
	Sigma []float64
	// PosCI90 is the per-axis 90% confidence half-width of the
	// position, meters; Z is 0 for 2D solves.
	PosCI90 geom.Vec3
	// AlphaCI90 is the 90% half-width of the orientation angle
	// (α for 2D, azimuth for 3D), radians.
	AlphaCI90 float64
	// NormLogLik is the average per-equation log-likelihood at the
	// optimum, −cost/(2·2N): comparable across windows regardless of
	// how many antennas survived. Closer to 0 is better.
	NormLogLik float64
	// AmbiguityMargin is the cost gap, in negative-log-likelihood
	// units, between the solution's wrap basin and the best
	// alternative λ/2 basin found by the probe multistart. Small or
	// negative margins mean the 2π ambiguity is not firmly resolved.
	AmbiguityMargin float64
	// AltBasins is how many probes escaped to a distinct basin (the
	// margin is measured against the best of them).
	AltBasins int
	// SigmaPhase is the intercept noise σ_B (radians) actually used,
	// after adaptive widening to the median fit residual.
	SigmaPhase float64
	// Cost is the joint objective re-evaluated at the estimate under
	// this confidence pass's weighting (2× total NLL).
	Cost float64
	// N is the number of observations scored.
	N int
}

// RadialCI90 is the 90% confidence radius in the XY plane — the
// conservative circular bound max(x, y half-widths).
func (c *Confidence) RadialCI90() float64 {
	return math.Max(c.PosCI90.X, c.PosCI90.Y)
}

// confidence Hessian step sizes per parameter kind. Position steps sit
// well under the centimeter curvature scale of the intercept term;
// the k_t step matches its ~1e-8 rad/Hz dynamic range.
const (
	hStepPos   = 5e-4
	hStepAngle = 1e-3
	hStepKt    = 2e-11
	hStepBt    = 1e-3
)

// EvaluateConfidence computes the Confidence block for an estimate
// already produced by Solve2D/Solve3D over the same observations. It
// is a pure post-pass: the solver's result is not modified, and the
// evaluation costs a few hundred objective calls (numerical Hessian +
// a handful of ambiguity probes) — small next to the multistart itself.
func EvaluateConfidence(obs []Observation, est Estimate, mode3D bool, bounds Bounds, opts Options) (*Confidence, error) {
	opts.defaults()
	if len(obs) < MinAntennas(mode3D) {
		return nil, fmt.Errorf("%w: %v", ErrConfidence, ErrTooFewAntennas)
	}
	// The per-antenna offsets applied upstream were estimated from a
	// single calibration window, so that window's noise realization
	// rides along fully correlated in every later window: one extra
	// nominal intercept variance, added in quadrature.
	opts.SigmaB *= math.Sqrt2
	sc := newSolveScratch(obs, &opts)

	var p []float64
	var steps []float64
	var f func([]float64) float64
	if mode3D {
		p = []float64{est.Pos.X, est.Pos.Y, est.Pos.Z, est.Azimuth, est.Elevation, est.Kt, est.Bt0}
		steps = []float64{hStepPos, hStepPos, hStepPos, hStepAngle, hStepAngle, hStepKt, hStepBt}
		f = sc.jointCost3D
	} else {
		p = []float64{est.Pos.X, est.Pos.Y, est.Alpha, est.Kt, est.Bt0}
		steps = []float64{hStepPos, hStepPos, hStepAngle, hStepKt, hStepBt}
		f = sc.jointCost2D
	}
	baseCost := f(p)
	if !isFinite(baseCost) {
		return nil, fmt.Errorf("%w: non-finite cost at estimate", ErrConfidence)
	}

	h, err := numericHessian(f, p, steps, baseCost)
	if err != nil {
		return nil, err
	}
	cov, err := invertPSD(h)
	if err != nil {
		return nil, err
	}
	// Cost = 2·NLL, so the observed information is H/2 and the
	// covariance is 2·H⁻¹.
	//
	// The raw inverse only describes the in-window phase scatter; the
	// dominant real-world error sources (calibration bias, orientation
	// model misfit, residual multipath) show up instead as excess cost
	// at the optimum. Inflate by the reduced chi-square s² = cost/dof
	// — the classic least-squares variance estimate — floored at 1 so
	// a lucky window never claims better than the nominal noise model.
	dof := float64(2*len(obs) - len(p))
	if dof < 1 {
		dof = 1
	}
	s2 := baseCost / dof
	if s2 < 1 {
		s2 = 1
	}
	for i := range cov.Data {
		cov.Data[i] *= 2 * s2
	}

	n := len(p)
	sigma := make([]float64, n)
	for i := 0; i < n; i++ {
		v := cov.At(i, i)
		if v < 0 {
			v = 0
		}
		sigma[i] = math.Sqrt(v)
	}

	conf := &Confidence{
		Cov:        cov,
		Sigma:      sigma,
		SigmaPhase: sc.sigmaB,
		Cost:       baseCost,
		N:          len(obs),
		NormLogLik: -baseCost / (2 * float64(2*len(obs))),
	}
	q := t90(dof)
	if mode3D {
		conf.PosCI90 = geom.Vec3{X: q * sigma[0], Y: q * sigma[1], Z: q * sigma[2]}
		conf.AlphaCI90 = q * sigma[3]
	} else {
		conf.PosCI90 = geom.Vec3{X: q * sigma[0], Y: q * sigma[1]}
		conf.AlphaCI90 = q * sigma[2]
	}
	conf.AmbiguityMargin, conf.AltBasins = ambiguityMargin(sc, est, mode3D, bounds, baseCost)
	return conf, nil
}

// numericHessian is the symmetric central-difference Hessian of f at
// p. f0 is f(p), already evaluated.
func numericHessian(f func([]float64) float64, p, steps []float64, f0 float64) (*mathx.Mat, error) {
	n := len(p)
	h := mathx.NewMat(n, n)
	q := make([]float64, n)
	eval := func(di, dj int, si, sj float64) float64 {
		copy(q, p)
		q[di] += si * steps[di]
		if dj >= 0 {
			q[dj] += sj * steps[dj]
		}
		return f(q)
	}
	for i := 0; i < n; i++ {
		fp := eval(i, -1, 1, 0)
		fm := eval(i, -1, -1, 0)
		h.Set(i, i, (fp-2*f0+fm)/(steps[i]*steps[i]))
		for j := i + 1; j < n; j++ {
			fpp := eval(i, j, 1, 1)
			fpm := eval(i, j, 1, -1)
			fmp := eval(i, j, -1, 1)
			fmm := eval(i, j, -1, -1)
			v := (fpp - fpm - fmp + fmm) / (4 * steps[i] * steps[j])
			h.Set(i, j, v)
			h.Set(j, i, v)
		}
	}
	for _, v := range h.Data {
		if !isFinite(v) {
			return nil, fmt.Errorf("%w: non-finite Hessian entry", ErrConfidence)
		}
	}
	return h, nil
}

// invertPSD inverts a symmetric matrix through a Cholesky
// factorization, escalating a diagonal jitter until the factorization
// succeeds — so the inverse is positive-definite by construction even
// when numerical noise (or a genuinely flat direction) leaves the raw
// Hessian indefinite.
func invertPSD(h *mathx.Mat) (*mathx.Mat, error) {
	n := h.Rows
	scale := 0.0
	for i := 0; i < n; i++ {
		if d := math.Abs(h.At(i, i)); d > scale {
			scale = d
		}
	}
	if scale == 0 {
		return nil, fmt.Errorf("%w: zero-curvature Hessian", ErrConfidence)
	}
	jitters := []float64{0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1}
	for _, j := range jitters {
		a := h.Clone()
		for i := 0; i < n; i++ {
			a.Add(i, i, j*scale)
		}
		inv, err := choleskyInverse(a)
		if err == nil {
			return inv, nil
		}
	}
	return nil, fmt.Errorf("%w: Hessian not invertible even with jitter", ErrConfidence)
}

func choleskyInverse(a *mathx.Mat) (*mathx.Mat, error) {
	n := a.Rows
	inv := mathx.NewMat(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for k := range e {
			e[k] = 0
		}
		e[j] = 1
		col, err := mathx.SolveCholesky(a, e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	// Symmetrize: the column solves agree only to rounding.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (inv.At(i, j) + inv.At(j, i)) / 2
			inv.Set(i, j, v)
			inv.Set(j, i, v)
		}
	}
	return inv, nil
}

// ambiguityOffsets are the λ/2 wrap-basin probe displacements: one and
// two basins out along each axis.
var ambiguityOffsets = []float64{-0.16, -0.08, 0.08, 0.16}

// ambiguityEscape is how far (m) a probe must land from the solution
// to count as a distinct basin rather than the same minimum re-found.
const ambiguityEscape = 0.04

// ambiguityMargin scores the 2π ambiguity explicitly: Levenberg–
// Marquardt probes started one and two wrap basins away on each
// position axis, under the multistart's own iteration cap, either fall
// back into the solution's basin (strong margin) or settle in an
// alternative basin whose cost gap — in NLL units,
// (altCost − baseCost)/2 — is the margin. Probes that all
// collapse home fall back to the unoptimized offset-point costs, which
// upper-bound how good any alternative basin could look.
func ambiguityMargin(sc *solveScratch, est Estimate, mode3D bool, bounds Bounds, baseCost float64) (margin float64, altBasins int) {
	bestAlt := math.Inf(1)
	bestRaw := math.Inf(1)
	axes := 2
	if mode3D {
		axes = 3
	}
	for axis := 0; axis < axes; axis++ {
		for _, off := range ambiguityOffsets {
			pos := est.Pos
			switch axis {
			case 0:
				pos.X = clamp(pos.X+off, bounds.XMin, bounds.XMax)
			case 1:
				pos.Y = clamp(pos.Y+off, bounds.YMin, bounds.YMax)
			case 2:
				pos.Z = clamp(pos.Z+off, bounds.ZMin, bounds.ZMax)
			}
			if pos.Dist(est.Pos) < ambiguityEscape {
				continue // clamped back onto the solution
			}
			var cand Estimate
			if mode3D {
				p0 := []float64{pos.X, pos.Y, pos.Z, est.Azimuth, est.Elevation, est.Kt, est.Bt0}
				if raw := sc.jointCost3D(p0); raw < bestRaw {
					bestRaw = raw
				}
				cand = runJoint3D(sc, p0, bounds, jointIters3D, 0)
			} else {
				p0 := []float64{pos.X, pos.Y, est.Alpha, est.Kt, est.Bt0}
				if raw := sc.jointCost2D(p0); raw < bestRaw {
					bestRaw = raw
				}
				cand = runJoint2D(sc, p0, bounds, jointIters2D, 0)
			}
			if cand.Pos.Dist(est.Pos) >= ambiguityEscape {
				altBasins++
				if cand.Cost < bestAlt {
					bestAlt = cand.Cost
				}
			}
		}
	}
	if altBasins == 0 {
		// Every probe collapsed back home: the nearest basins are so
		// much worse that even their unoptimized entry cost bounds the
		// margin. Keeps the margin finite for the wire format.
		bestAlt = bestRaw
	}
	if math.IsInf(bestAlt, 1) {
		return 0, 0
	}
	return (bestAlt - baseCost) / 2, altBasins
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
