// Package core implements RF-Prism's phase disentangling: the
// multi-frequency multi-antenna model of §IV and its solver, which
// separates one hop round of phase readings into the propagation,
// orientation and material components, yielding simultaneous
// localization, orientation sensing and material parameters.
//
// The solver follows the paper's two observations per antenna — the
// slope k_i and intercept b_i of the phase-vs-frequency line (Eq. 7)
// — and solves the 2N-equation system in two stages:
//
//  1. a slope-only grid search localizes the tag coarsely (the slopes
//     are wrap-free, so this stage has no ambiguity), and
//  2. a joint Levenberg–Marquardt multistart refines all unknowns
//     (x, y, α, k_t, b_t) against both the slope equations and the
//     *wrapped* intercept equations.
//
// The intercepts carry sub-wavelength information (ψ changes by 2π
// per λ/2 of distance), which is why the joint stage both sharpens the
// position to the nearest phase-consistent basin and recovers the
// orientation: a basin error displaces distance by exactly λ/2, i.e.
// shifts the intercept residual by exactly 2π — leaving orientation
// estimation unaffected.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"rfprism/internal/fit"
	"rfprism/internal/geom"
	"rfprism/internal/mathx"
	"rfprism/internal/rf"
)

// ErrTooFewAntennas is returned when fewer antennas than the model
// needs are observed (3 for 2D, 4 for 3D).
var ErrTooFewAntennas = errors.New("core: too few antennas")

// MinAntennas returns the observation count the solver model needs:
// 3 for the 2D model, 4 for the 3D model. Deployments with more
// antennas than this are redundant — the solvers accept any subset of
// at least this size, which is what lets the pipeline keep running
// when antennas die (degraded mode, DESIGN.md §7).
func MinAntennas(mode3D bool) int {
	if mode3D {
		return 4
	}
	return 3
}

// Observation is the per-antenna input to the disentangler: the
// antenna's surveyed geometry and the fitted phase-vs-frequency line
// of the current window. Freqs/Phases optionally carry the surviving
// channel samples for the per-channel maximum-likelihood polish.
type Observation struct {
	ID     int
	Pos    geom.Vec3
	Frame  geom.Frame
	Line   fit.Line
	Freqs  []float64
	Phases []float64
	// Weight soft-scales this antenna's residual terms in every
	// objective (slope and intercept alike). Zero means "unset" and is
	// treated as 1 so existing constructors keep full weight; the
	// likelihood layer assigns fractional weights to noisy or
	// nonlinear antennas instead of hard-dropping them. A weight of
	// exactly 1 (or 0) leaves every cost bit-identical to the
	// unweighted objective — the factor multiplies by exactly 1.0.
	Weight float64
}

// obsWeight returns the effective soft weight of o: Weight, with the
// zero value mapped to full weight.
func obsWeight(o *Observation) float64 {
	if o.Weight > 0 {
		return o.Weight
	}
	return 1
}

// Bounds is the rectangular (2D) or box (3D) search region for the
// tag position.
type Bounds struct {
	XMin, XMax float64
	YMin, YMax float64
	ZMin, ZMax float64 // used by Solve3D only
}

// Estimate is the disentangled state of one tag window.
type Estimate struct {
	// Pos is the tag position (Z = 0 for Solve2D).
	Pos geom.Vec3
	// Alpha is the in-plane polarization angle in [0, π) (2D).
	Alpha float64
	// Azimuth and Elevation describe the 3D polarization (Solve3D).
	Azimuth, Elevation float64
	// Kt is the residual slope common to all antennas: the material
	// slope k_t (plus per-tag diversity until tag calibration).
	Kt float64
	// Bt0 is the residual band-center intercept: the material
	// intercept b_t (plus per-tag diversity), in [0, 2π).
	Bt0 float64
	// Cost is the weighted joint residual at the solution; a
	// solution-quality indicator comparable across windows.
	Cost float64
}

// Options tunes the solver. The zero value uses defaults.
type Options struct {
	// GridStep is the coarse position search step in meters.
	// Default 0.05.
	GridStep float64
	// SigmaB is the assumed intercept model error (rad) weighting
	// the wrapped intercept equations against the slope equations.
	// Default 0.04.
	SigmaB float64
	// DisableFinePhase turns the joint intercept refinement off,
	// reducing the solver to the slope-only stage plus a detached
	// orientation fit — the ablation showing what the wrapped
	// intercept equations buy.
	DisableFinePhase bool
	// MLPolish additionally refines against the raw per-channel
	// phases (requires Freqs/Phases in the observations). Off by
	// default; exposed for the ablation benches.
	MLPolish bool
	// NoKtPrior disables the weak physical prior on the common
	// slope offset k_t. The prior (rf.KtPhysicalMean ± Sigma)
	// suppresses the radial position/k_t near-ambiguity at the far
	// edge of the region; disabling it is an ablation.
	NoKtPrior bool
	// KtPriorMean/KtPriorSigma override the default k_t prior.
	KtPriorMean, KtPriorSigma float64
	// Parallelism bounds the solver's worker count for the grid
	// search and the joint multistart: 0 uses GOMAXPROCS, 1 forces
	// the serial path. Parallel and serial runs produce bit-identical
	// estimates (each start is an independent optimizer run and the
	// reduction is deterministic: min cost, ties to the lowest start
	// index).
	Parallelism int
}

func (o *Options) defaults() {
	if o.GridStep <= 0 {
		o.GridStep = 0.05
	}
	if o.SigmaB <= 0 {
		o.SigmaB = 0.04
	}
	if o.KtPriorSigma <= 0 {
		o.KtPriorMean = rf.KtPhysicalMean
		o.KtPriorSigma = rf.KtPhysicalSigma
	}
	if o.NoKtPrior {
		o.KtPriorSigma = 0
	}
}

// Iteration budgets of the joint multistart stages (Levenberg–Marquardt
// iterations per start) and the final fine simplex pass, and the
// relative cost improvement below which a start has converged.
const (
	jointIters2D = 30
	jointIters3D = 60
	fineIters2D  = 500
	jointTolRSS  = 1e-9
)

// AntennaCal holds the per-antenna hardware corrections of §IV-C,
// relative to the first antenna: after subtraction every antenna has
// the same effective reader phase, which the model absorbs into
// (k_t, b_t).
type AntennaCal struct {
	// DK and DB are per-antenna slope (rad/Hz) and band-center
	// intercept (rad) corrections, keyed by antenna ID.
	DK map[int]float64
	DB map[int]float64
}

// Apply returns a copy of obs with the calibration subtracted.
// Antennas whose corrections are both zero keep their phase slices
// as-is (subtracting zero is a no-op), so fully-zero calibrations
// allocate nothing beyond the observation copy.
func (c AntennaCal) Apply(obs []Observation) []Observation {
	if c.DK == nil && c.DB == nil {
		return obs
	}
	out := make([]Observation, len(obs))
	copy(out, obs)
	for i := range out {
		dk, db := c.DK[out[i].ID], c.DB[out[i].ID]
		if dk == 0 && db == 0 {
			continue
		}
		out[i].Line.K -= dk
		out[i].Line.B0 -= db
		if len(out[i].Phases) > 0 {
			ph := make([]float64, len(out[i].Phases))
			for j, p := range out[i].Phases {
				ph[j] = p - dk*(out[i].Freqs[j]-rf.CenterFrequencyHz) - db
			}
			out[i].Phases = ph
		}
	}
	return out
}

// CalibrateAntennas derives the per-antenna corrections from a
// calibration window: a bare tag at a known position with known
// in-plane polarization angle (the paper's pre-deployment procedure,
// §IV-C). The correction is absolute — it removes each port's full
// hardware line (plus the calibration tag's own diversity, which
// simply re-references every other tag's k_t/b_t). Keeping the
// corrected k_t small is what makes the physical k_t prior in the
// solver meaningful.
func CalibrateAntennas(obs []Observation, truthPos geom.Vec3, truthAlpha float64) (AntennaCal, error) {
	if len(obs) == 0 {
		return AntennaCal{}, fmt.Errorf("core: calibration needs observations")
	}
	w := rf.TagPolarization2D(truthAlpha)
	dk := make(map[int]float64, len(obs))
	db := make(map[int]float64, len(obs))
	for _, o := range obs {
		d := o.Pos.Dist(truthPos)
		expK := rf.PropagationSlope(d)
		expB := mathx.Wrap2Pi(rf.PropagationPhase(d, rf.CenterFrequencyHz) + rf.OrientationPhase(o.Frame, w))
		residK := o.Line.K - expK
		residB := mathx.WrapPi(o.Line.B0 - expB)
		dk[o.ID] = residK
		db[o.ID] = residB
	}
	return AntennaCal{DK: dk, DB: db}, nil
}

// slopeCost evaluates the stage-1 objective at position p: the
// weighted variance of e_i = k_i − 4π·d_i/c across antennas (the
// common offset k_t is profiled out). It returns the cost and the
// profiled k_t.
// ktPrior is the (mean, 1/σ²) of the k_t prior; wp = 0 disables it.
type ktPrior struct {
	mean, wp float64
}

func (o Options) prior() ktPrior {
	if o.KtPriorSigma <= 0 {
		return ktPrior{}
	}
	return ktPrior{mean: o.KtPriorMean, wp: 1 / (o.KtPriorSigma * o.KtPriorSigma)}
}

func slopeCost(obs []Observation, p geom.Vec3, prior ktPrior) (cost, kt float64) {
	// Two passes over the (3–4) observations, recomputing the residual
	// in the second: cheaper than heap-allocating scratch slices in
	// what is the innermost loop of the grid search.
	var sw, swe float64
	for i := range obs {
		o := &obs[i]
		d := o.Pos.Dist(p)
		e := o.Line.K - rf.PropagationSlope(d)
		w := obsWeight(o)
		if o.Line.SigmaK > 0 {
			w /= o.Line.SigmaK * o.Line.SigmaK
		}
		sw += w
		swe += w * e
	}
	// The common offset k_t is profiled analytically, shrunk toward
	// the physical prior when one is configured.
	kt = (swe + prior.mean*prior.wp) / (sw + prior.wp)
	for i := range obs {
		o := &obs[i]
		d := o.Pos.Dist(p)
		e := o.Line.K - rf.PropagationSlope(d)
		w := obsWeight(o)
		if o.Line.SigmaK > 0 {
			w /= o.Line.SigmaK * o.Line.SigmaK
		}
		r := e - kt
		cost += w * r * r
	}
	dp := kt - prior.mean
	cost += prior.wp * dp * dp
	return cost / sw, kt
}

// orientCost evaluates the detached orientation objective at
// polarization vector w given residual intercepts psi: the circular
// variance of ψ_i − θorient_i(w). It returns the cost and the
// profiled b_t (circular mean of the residuals).
func orientCost(obs []Observation, psi []float64, w geom.Vec3) (cost, bt0 float64) {
	var s, c, sw float64
	for i := range obs {
		o := &obs[i]
		r := psi[i] - rf.OrientationPhase(o.Frame, w)
		ww := obsWeight(o)
		sr, cr := math.Sincos(r)
		s += ww * sr
		c += ww * cr
		sw += ww
	}
	resultant := math.Hypot(s/sw, c/sw)
	return 1 - resultant, mathx.Wrap2Pi(math.Atan2(s, c))
}

// jointCost2D is the full 2N-equation objective of Eq. (7) at
// parameter vector p = (x, y, α, k_t, b_t): weighted slope residuals
// plus weighted *wrapped* intercept residuals.
func jointCost2D(obs []Observation, p []float64, sigmaB float64, prior ktPrior) float64 {
	pos := geom.Vec3{X: p[0], Y: p[1]}
	w := rf.TagPolarization2D(p[2])
	kt, bt0 := p[3], p[4]
	var cost float64
	for i := range obs {
		o := &obs[i]
		d := o.Pos.Dist(pos)
		rk := o.Line.K - rf.PropagationSlope(d) - kt
		wb := obsWeight(o)
		wk := wb
		if o.Line.SigmaK > 0 {
			wk /= o.Line.SigmaK * o.Line.SigmaK
		}
		pred := rf.PropagationPhase(d, rf.CenterFrequencyHz) + rf.OrientationPhase(o.Frame, w) + bt0
		rb := mathx.WrapPi(o.Line.B0 - pred)
		cost += wk*rk*rk + wb*rb*rb/(sigmaB*sigmaB)
	}
	dp := kt - prior.mean
	cost += prior.wp * dp * dp
	return cost
}

// Solve2D disentangles a window observed by ≥3 antennas for a tag on
// the z = 0 working plane with in-plane polarization. It implements
// Eq. (7): position and material slope from the per-antenna slopes,
// orientation and material intercept from the per-antenna intercepts.
func Solve2D(obs []Observation, bounds Bounds, opts Options) (Estimate, error) {
	opts.defaults()
	if len(obs) < MinAntennas(false) {
		return Estimate{}, fmt.Errorf("%w: have %d, need 3 for 2D", ErrTooFewAntennas, len(obs))
	}

	// The scratch hoists the per-observation invariants (slope
	// weights, k_t prior, σ_B²) and widens σ_B adaptively: under
	// multipath the per-antenna residuals inflate, the intercepts are
	// no longer trustworthy to σ_B, and over-weighting them makes the
	// joint stage jump to far wrong wrap basins.
	sc := newSolveScratch(obs, &opts)

	// Stage 1: wrap-free coarse position from the slopes alone.
	posA := gridSearch2D(sc, bounds, opts.GridStep, opts.Parallelism)
	posA = refinePos2D(sc, posA, bounds, opts.GridStep)

	if opts.DisableFinePhase {
		return solveDetached2D(sc, posA), nil
	}

	// Stage 2: joint multistart over position offsets (the coarse
	// fix's λ/2 wrap basin and its neighbors) and orientation starts.
	// Every start is an independent optimizer run, so the 54 starts
	// fan out across the worker pool; the reduction keeps the
	// lowest-cost candidate with ties broken toward the lowest start
	// index, which is exactly what the serial scan produced.
	starts := make([][]float64, 0, len(basinOffsets)*len(basinOffsets)*orientStarts2D)
	for _, dx := range basinOffsets {
		for _, dy := range basinOffsets {
			x0 := clamp(posA.X+dx, bounds.XMin, bounds.XMax)
			y0 := clamp(posA.Y+dy, bounds.YMin, bounds.YMax)
			_, kt0 := sc.slopeCost(geom.Vec3{X: x0, Y: y0})
			// Profile bt0 at each start for a good basin entry; psi
			// depends only on the position, so compute it once per
			// offset rather than per orientation start.
			sc.setPsi(geom.Vec3{X: x0, Y: y0})
			for a := 0; a < orientStarts2D; a++ {
				alpha0 := float64(a) * math.Pi / orientStarts2D
				_, bt0 := orientCost(sc.obs, sc.psi, rf.TagPolarization2D(alpha0))
				starts = append(starts, []float64{x0, y0, alpha0, kt0, bt0})
			}
		}
	}
	cands := make([]Estimate, len(starts))
	parallelFor(len(starts), workerCount(opts.Parallelism, len(starts)), func(i int) {
		cands[i] = runJoint2D(sc, starts[i], bounds, jointIters2D)
	})

	// Dense orientation refinement, the final fine simplex (the
	// multistart runs are iteration-capped and stop at a relative cost
	// tolerance), and the optional ML polish.
	best := refineAlpha2D(sc, reduceMinCost(cands))
	if fine := runJoint2DFine(sc, best, bounds); fine.Cost < best.Cost {
		best = fine
	}
	best = refineAlpha2D(sc, best)
	if opts.MLPolish {
		best = polish2D(sc.obs, best, bounds)
		best = refineAlpha2D(sc, best)
	}
	return best, nil
}

// runJoint2DFine is a tighter, longer simplex pass around an
// already-good candidate.
func runJoint2DFine(sc *solveScratch, est Estimate, bounds Bounds) Estimate {
	p0 := []float64{est.Pos.X, est.Pos.Y, est.Alpha, est.Kt, est.Bt0}
	q := make([]float64, 5)
	obj := func(p []float64) float64 {
		q[0] = clamp(p[0], bounds.XMin, bounds.XMax)
		q[1] = clamp(p[1], bounds.YMin, bounds.YMax)
		q[2], q[3], q[4] = p[2], p[3], p[4]
		return sc.jointCost2D(q)
	}
	p, cost := mathx.NelderMead(obj, p0, 0.004, fineIters2D)
	return Estimate{
		Pos:   geom.Vec3{X: clamp(p[0], bounds.XMin, bounds.XMax), Y: clamp(p[1], bounds.YMin, bounds.YMax)},
		Alpha: normalizeAlpha(p[2]),
		Kt:    p[3],
		Bt0:   mathx.Wrap2Pi(p[4]),
		Cost:  cost,
	}
}

// refineAlpha2D re-estimates the orientation with a dense grid at the
// solved position: the joint optimizer can stall in a local minimum of
// the angle-doubled orientation response, and a 1-degree grid over
// [0, pi) is cheap insurance — trig-free via the precomputed
// polarization table. The result is kept only if it lowers the joint
// cost.
func refineAlpha2D(sc *solveScratch, est Estimate) Estimate {
	sc.setPsi(est.Pos)
	g := alphaGrid()
	bi, _ := sc.scanOrient(g)
	alpha := refineAngle(func(a float64) float64 {
		c, _ := orientCost(sc.obs, sc.psi, rf.TagPolarization2D(a))
		return c
	}, g.az[bi], mathx.Rad(1))
	_, bt0 := orientCost(sc.obs, sc.psi, rf.TagPolarization2D(alpha))
	cand := []float64{est.Pos.X, est.Pos.Y, alpha, est.Kt, bt0}
	if c := sc.jointCost2D(cand); c < est.Cost {
		est.Alpha = normalizeAlpha(alpha)
		est.Bt0 = bt0
		est.Cost = c
	}
	return est
}

// refineAngle golden-sections a 1D angular objective around a coarse
// minimum.
func refineAngle(f func(float64) float64, center, halfWidth float64) float64 {
	const phi = 0.6180339887498949
	a, b := center-halfWidth, center+halfWidth
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	fc, fd := f(c), f(d)
	for i := 0; i < 40 && (b-a) > 1e-6; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = f(d)
		}
	}
	return (a + b) / 2
}

// basinOffsets are the per-axis start offsets of the 2D multistart:
// the centre λ/2 wrap basin and one 8 cm (≈λ/4) step either side. LM
// starts follow the smooth slope residuals across basins, so they reach
// the tag's even when the slope fix is 20+ cm off.
var basinOffsets = []float64{-0.08, 0, 0.08}

// orientStarts2D cold orientation starts per offset span [0, π).
const orientStarts2D = 6

func makePsi(obs []Observation, pos geom.Vec3) []float64 {
	psi := make([]float64, len(obs))
	for i, o := range obs {
		prop := rf.PropagationPhase(o.Pos.Dist(pos), rf.CenterFrequencyHz)
		psi[i] = mathx.Wrap2Pi(o.Line.B0 - prop)
	}
	return psi
}

// runJoint2D runs one Levenberg–Marquardt refinement of the joint
// objective from p0, capped at maxIter iterations, and packages the
// result. The start and every step are kept inside the bounds
// (LMProblem.Lower/Upper), so a start whose step overshoots a bound
// stops on it with a live Jacobian column and can walk back inside. The cost is re-evaluated
// with jointCost2D at the returned point, so every caller compares the
// same objective whatever optimizer produced the point.
func runJoint2D(sc *solveScratch, p0 []float64, bounds Bounds, maxIter int) Estimate {
	ws := lmWorkspaces.Get().(*mathx.LMWorkspace)
	defer lmWorkspaces.Put(ws)
	lo, hi := bounds.lmBox2D()
	res, _ := ws.Solve(mathx.LMProblem{
		NumResiduals: 2*len(sc.obs) + 1,
		NumParams:    5,
		Residuals:    sc.jointResiduals2D,
		Jacobian:     sc.jointJacobian2D,
		Lower:        lo[:],
		Upper:        hi[:],
	}, p0, jointLMOptions(maxIter))
	p := res.Params
	return Estimate{
		Pos:   geom.Vec3{X: p[0], Y: p[1]},
		Alpha: normalizeAlpha(p[2]),
		Kt:    p[3],
		Bt0:   mathx.Wrap2Pi(p[4]),
		Cost:  sc.jointCost2D(p),
	}
}

// lmWorkspaces recycles the Levenberg–Marquardt working storage across
// joint-solve starts: every start of a solve has the same size, so a
// parallelFor worker reuses one slab for all its starts instead of
// allocating one per start.
var lmWorkspaces = sync.Pool{New: func() any { return new(mathx.LMWorkspace) }}

// lmBox2D and lmBox3D are the joint parameter vectors' bounds: the
// position inside Bounds, the angles, k_t and b_t free.
func (b Bounds) lmBox2D() (lo, hi [5]float64) {
	inf := math.Inf(1)
	return [5]float64{b.XMin, b.YMin, -inf, -inf, -inf}, [5]float64{b.XMax, b.YMax, inf, inf, inf}
}

func (b Bounds) lmBox3D() (lo, hi [7]float64) {
	inf := math.Inf(1)
	return [7]float64{b.XMin, b.YMin, b.ZMin, -inf, -inf, -inf, -inf},
		[7]float64{b.XMax, b.YMax, b.ZMax, inf, inf, inf, inf}
}

// jointLMOptions are the stopping rules of one joint-solve start.
func jointLMOptions(maxIter int) mathx.LMOptions {
	return mathx.LMOptions{MaxIterations: maxIter, TolRSS: jointTolRSS}
}

// solveDetached2D is the fine-phase-off ablation: slope-only position
// plus an orientation fit against the (position-error-contaminated)
// intercept residuals.
func solveDetached2D(sc *solveScratch, pos geom.Vec3) Estimate {
	costK, kt := sc.slopeCost(pos)
	sc.setPsi(pos)
	g := alphaGrid()
	bi, bestCost := sc.scanOrient(g)
	_, bt0 := orientCost(sc.obs, sc.psi, rf.TagPolarization2D(g.az[bi]))
	return Estimate{
		Pos:   pos,
		Alpha: normalizeAlpha(g.az[bi]),
		Kt:    kt,
		Bt0:   bt0,
		Cost:  costK + bestCost,
	}
}

// gridAxis reproduces the solver's historical scan sequence
// lo, lo+step, ... — by accumulation, not multiplication, so the
// parallel row sharding visits bit-identical coordinates.
func gridAxis(lo, hi, step float64) []float64 {
	var out []float64
	for v := lo; v <= hi+1e-9; v += step {
		out = append(out, v)
	}
	return out
}

// gridSearch2D scans the bounds for the minimum slope cost. The scan
// is sharded by row (fixed x) across the worker pool; each row
// records its own first-minimum and the rows are reduced in scan
// order, which keeps the result identical to the serial raster scan.
func gridSearch2D(sc *solveScratch, bounds Bounds, step float64, parallelism int) geom.Vec3 {
	xs := gridAxis(bounds.XMin, bounds.XMax, step)
	ys := gridAxis(bounds.YMin, bounds.YMax, step)
	type rowBest struct {
		cost float64
		pos  geom.Vec3
	}
	rows := make([]rowBest, len(xs))
	parallelFor(len(xs), workerCount(parallelism, len(xs)), func(i int) {
		rb := rowBest{cost: math.Inf(1)}
		for _, y := range ys {
			p := geom.Vec3{X: xs[i], Y: y}
			c, _ := sc.slopeCost(p)
			if c < rb.cost {
				rb = rowBest{cost: c, pos: p}
			}
		}
		rows[i] = rb
	})
	best := math.Inf(1)
	var bestPos geom.Vec3
	for _, rb := range rows {
		if rb.cost < best {
			best, bestPos = rb.cost, rb.pos
		}
	}
	return bestPos
}

func refinePos2D(sc *solveScratch, start geom.Vec3, bounds Bounds, scale float64) geom.Vec3 {
	refined, _ := mathx.NelderMead(func(v []float64) float64 {
		x := clamp(v[0], bounds.XMin, bounds.XMax)
		y := clamp(v[1], bounds.YMin, bounds.YMax)
		c, _ := sc.slopeCost(geom.Vec3{X: x, Y: y})
		return c
	}, []float64{start.X, start.Y}, scale, 300)
	return geom.Vec3{
		X: clamp(refined[0], bounds.XMin, bounds.XMax),
		Y: clamp(refined[1], bounds.YMin, bounds.YMax),
	}
}

// polish2D jointly refines all five unknowns against the raw
// per-channel phases with wrapped residuals — the maximum-likelihood
// finish documented in DESIGN.md §5 (ablation: MLPolish).
func polish2D(obs []Observation, est Estimate, bounds Bounds) Estimate {
	var n int
	for _, o := range obs {
		n += len(o.Freqs)
	}
	if n < 10 {
		return est
	}
	prob := mathx.LMProblem{
		NumResiduals: n + len(obs),
		NumParams:    5,
		Step:         []float64{1e-4, 1e-4, 1e-4, 1e-11, 1e-4},
		Residuals: func(p, out []float64) {
			pos := geom.Vec3{X: p[0], Y: p[1]}
			w := rf.TagPolarization2D(p[2])
			kt, bt0 := p[3], p[4]
			idx := 0
			for _, o := range obs {
				d := o.Pos.Dist(pos)
				orient := rf.OrientationPhase(o.Frame, w)
				for j, f := range o.Freqs {
					pred := rf.PropagationPhase(d, f) + orient + kt*(f-rf.CenterFrequencyHz) + bt0
					out[idx] = mathx.WrapPi(o.Phases[j] - pred)
					idx++
				}
				// Slope anchor keeps the polish in the right basin.
				out[idx] = (o.Line.K - rf.PropagationSlope(d) - kt) * 2e7
				idx++
			}
		},
	}
	p0 := []float64{est.Pos.X, est.Pos.Y, est.Alpha, est.Kt, est.Bt0}
	res, err := mathx.LevenbergMarquardt(prob, p0, mathx.LMOptions{MaxIterations: 60})
	if err != nil && !errors.Is(err, mathx.ErrNoConvergence) {
		return est
	}
	x := clamp(res.Params[0], bounds.XMin, bounds.XMax)
	y := clamp(res.Params[1], bounds.YMin, bounds.YMax)
	// Reject a polish that wandered to another wrap basin.
	if math.Hypot(x-est.Pos.X, y-est.Pos.Y) > 0.12 {
		return est
	}
	est.Pos = geom.Vec3{X: x, Y: y}
	est.Alpha = normalizeAlpha(res.Params[2])
	est.Kt = res.Params[3]
	est.Bt0 = mathx.Wrap2Pi(res.Params[4])
	return est
}

// normalizeAlpha maps an in-plane polarization angle to [0, π): a
// dipole is symmetric under 180° rotation.
func normalizeAlpha(a float64) float64 {
	a = mathx.Mod(a, math.Pi)
	if a < 0 {
		a += math.Pi
		if a == math.Pi { // |a| < ulp(π)/2 rounds onto the open end
			a = 0
		}
	}
	return a
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Test hooks: exported thin wrappers used by the root-package
// diagnostics to probe the internal objectives.

// SlopeCostForTest exposes slopeCost for diagnostics.
func SlopeCostForTest(obs []Observation, p geom.Vec3) (float64, float64) {
	return slopeCost(obs, p, ktPrior{})
}

// MakePsiForTest exposes makePsi for diagnostics.
func MakePsiForTest(obs []Observation, p geom.Vec3) []float64 { return makePsi(obs, p) }

// OrientCostForTest exposes orientCost for diagnostics.
func OrientCostForTest(obs []Observation, psi []float64, w geom.Vec3) (float64, float64) {
	return orientCost(obs, psi, w)
}

// JointCost2DForTest exposes jointCost2D for diagnostics.
func JointCost2DForTest(obs []Observation, p []float64, sigmaB float64) float64 {
	return jointCost2D(obs, p, sigmaB, ktPrior{})
}
