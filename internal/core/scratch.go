package core

import (
	"math"
	"sync"

	"rfprism/internal/geom"
	"rfprism/internal/mathx"
	"rfprism/internal/rf"
)

// solveScratch hoists the per-observation invariants of one solve —
// slope weights 1/σ_k², their sum, the k_t prior, the intercept weight
// and the square roots that scale the least-squares residuals — so the
// objectives, residuals and Jacobians evaluated thousands of times
// inside the optimizer loops run allocation-free. The psi/sinPsi/cosPsi
// buffers hold the residual intercepts of the most recent setPsi
// position for the dense orientation scans.
//
// Concurrency: the precomputed fields (obs, wk, sw, prior, sigB2) are
// read-only after construction, so slopeCost/jointCost2D/jointCost3D
// are safe to call from parallel workers. setPsi and everything that
// reads psi/sinPsi/cosPsi/resids mutate shared buffers and must only
// run in the serial sections of a solve (start construction and the
// post-reduction refinements).
type solveScratch struct {
	obs    []Observation
	prior  ktPrior
	sigmaB float64
	sigB2  float64 // sigmaB², hoisted out of the intercept residual term
	wk     []float64
	sw     float64   // Σ wk, accumulated in observation order
	wb     []float64 // per-antenna soft weight (Observation.Weight, 1 default)
	swb    float64   // Σ wb
	rwk    []float64 // √wk: slope residual scale
	rwb    []float64 // √wb/σ_B: intercept residual scale
	rwp    float64   // √wp: k_t prior residual scale
	psi    []float64
	sinPsi []float64
	cosPsi []float64
	resids []float64 // adaptiveSigmaB scratch
}

// newCostScratch builds a scratch around obs with an explicit σ_B (no
// adaptive widening) — the form the exported cost probes use.
func newCostScratch(obs []Observation, sigmaB float64, prior ktPrior) *solveScratch {
	n := len(obs)
	buf := make([]float64, 8*n)
	sc := &solveScratch{
		obs:    obs,
		prior:  prior,
		wk:     buf[0:n:n],
		psi:    buf[n : 2*n : 2*n],
		sinPsi: buf[2*n : 3*n : 3*n],
		cosPsi: buf[3*n : 4*n : 4*n],
		resids: buf[4*n : 5*n : 5*n],
		wb:     buf[5*n : 6*n : 6*n],
		rwk:    buf[6*n : 7*n : 7*n],
		rwb:    buf[7*n : 8*n : 8*n],
		rwp:    math.Sqrt(prior.wp),
	}
	for i := range obs {
		o := &obs[i]
		soft := obsWeight(o)
		w := soft
		if o.Line.SigmaK > 0 {
			w /= o.Line.SigmaK * o.Line.SigmaK
		}
		sc.wk[i] = w
		sc.rwk[i] = math.Sqrt(w)
		sc.sw += w
		sc.wb[i] = soft
		sc.swb += soft
	}
	sc.setSigmaB(sigmaB)
	return sc
}

// newSolveScratch is the solver entry form: it widens opts.SigmaB with
// the adaptive rule and writes the result back so every downstream
// stage of the solve weights the intercepts identically.
func newSolveScratch(obs []Observation, opts *Options) *solveScratch {
	sc := newCostScratch(obs, opts.SigmaB, opts.prior())
	opts.SigmaB = sc.adaptiveSigmaB(opts.SigmaB)
	sc.setSigmaB(opts.SigmaB)
	return sc
}

func (sc *solveScratch) setSigmaB(sigmaB float64) {
	sc.sigmaB = sigmaB
	sc.sigB2 = sigmaB * sigmaB
	for i, w := range sc.wb {
		sc.rwb[i] = math.Sqrt(w) / sigmaB
	}
}

// adaptiveSigmaB widens the assumed intercept error to the median
// per-antenna fit residual when that exceeds the floor — same rule as
// the package-level adaptiveSigmaB, but sorting the reusable resids
// buffer in place instead of allocating.
func (sc *solveScratch) adaptiveSigmaB(floor float64) float64 {
	for i := range sc.obs {
		sc.resids[i] = sc.obs[i].Line.ResidStd
	}
	if m := mathx.MedianInPlace(sc.resids); m > floor {
		return m
	}
	return floor
}

// slopeCost is slopeCost over the precomputed weights: bit-identical
// to the package-level function (same accumulation order, same
// profiled k_t) with the weight recomputation hoisted out.
func (sc *solveScratch) slopeCost(p geom.Vec3) (cost, kt float64) {
	var swe float64
	for i := range sc.obs {
		o := &sc.obs[i]
		d := o.Pos.Dist(p)
		e := o.Line.K - rf.PropagationSlope(d)
		swe += sc.wk[i] * e
	}
	kt = (swe + sc.prior.mean*sc.prior.wp) / (sc.sw + sc.prior.wp)
	for i := range sc.obs {
		o := &sc.obs[i]
		d := o.Pos.Dist(p)
		e := o.Line.K - rf.PropagationSlope(d)
		r := e - kt
		cost += sc.wk[i] * r * r
	}
	dp := kt - sc.prior.mean
	cost += sc.prior.wp * dp * dp
	return cost / sc.sw, kt
}

// jointCost2D is the full 2N-equation objective at p = (x, y, α, k_t,
// b_t) — the same expression as the package-level jointCost2D with the
// slope weights and σ_B² precomputed.
func (sc *solveScratch) jointCost2D(p []float64) float64 {
	pos := geom.Vec3{X: p[0], Y: p[1]}
	w := rf.TagPolarization2D(p[2])
	kt, bt0 := p[3], p[4]
	var cost float64
	for i := range sc.obs {
		o := &sc.obs[i]
		d := o.Pos.Dist(pos)
		rk := o.Line.K - rf.PropagationSlope(d) - kt
		pred := rf.PropagationPhase(d, rf.CenterFrequencyHz) + rf.OrientationPhase(o.Frame, w) + bt0
		rb := mathx.WrapPi(o.Line.B0 - pred)
		cost += sc.wk[i]*rk*rk + sc.wb[i]*rb*rb/sc.sigB2
	}
	dp := kt - sc.prior.mean
	cost += sc.prior.wp * dp * dp
	return cost
}

// jointCost3D is the objective at p = (x, y, z, az, el, k_t, b_t).
func (sc *solveScratch) jointCost3D(p []float64) float64 {
	pos := geom.Vec3{X: p[0], Y: p[1], Z: p[2]}
	w := rf.TagPolarization3D(p[3], p[4])
	kt, bt0 := p[5], p[6]
	var cost float64
	for i := range sc.obs {
		o := &sc.obs[i]
		d := o.Pos.Dist(pos)
		rk := o.Line.K - rf.PropagationSlope(d) - kt
		pred := rf.PropagationPhase(d, rf.CenterFrequencyHz) + rf.OrientationPhase(o.Frame, w) + bt0
		rb := mathx.WrapPi(o.Line.B0 - pred)
		cost += sc.wk[i]*rk*rk + sc.wb[i]*rb*rb/sc.sigB2
	}
	dp := kt - sc.prior.mean
	cost += sc.prior.wp * dp * dp
	return cost
}

// The joint objective as a least-squares problem: jointCost2D/3D is
// the sum of squares of 2N+1 residuals — per antenna the scaled slope
// residual √wk·(K − 4πd/c − k_t) (rows 0..N−1) and the scaled wrapped
// intercept residual √wb/σ_B·WrapPi(B0 − 4πf₀d/c − θorient − b_t)
// (rows N..2N−1), plus the k_t prior √wp·(k_t − mean) (row 2N). The
// solver keeps p inside the bounds (LMProblem.Lower/Upper), so the
// residuals take the position as it is.

// jointResiduals2D writes the residuals at p = (x, y, α, k_t, b_t).
func (sc *solveScratch) jointResiduals2D(p, out []float64) {
	sc.jointResiduals(geom.Vec3{X: p[0], Y: p[1]}, rf.TagPolarization2D(p[2]), p[3], p[4], out)
}

// jointResiduals3D writes the residuals at p = (x, y, z, az, el, k_t, b_t).
func (sc *solveScratch) jointResiduals3D(p, out []float64) {
	sc.jointResiduals(geom.Vec3{X: p[0], Y: p[1], Z: p[2]}, rf.TagPolarization3D(p[3], p[4]), p[5], p[6], out)
}

func (sc *solveScratch) jointResiduals(pos, w geom.Vec3, kt, bt0 float64, out []float64) {
	n := len(sc.obs)
	for i := range sc.obs {
		o := &sc.obs[i]
		d := o.Pos.Dist(pos)
		out[i] = sc.rwk[i] * (o.Line.K - rf.PropagationSlope(d) - kt)
		pred := rf.PropagationPhase(d, rf.CenterFrequencyHz) + rf.OrientationPhase(o.Frame, w) + bt0
		out[n+i] = sc.rwb[i] * mathx.WrapPi(o.Line.B0-pred)
	}
	out[2*n] = sc.rwp * (kt - sc.prior.mean)
}

// jointJacobian2D fills the residuals' Jacobian at p = (x, y, α, k_t, b_t).
func (sc *solveScratch) jointJacobian2D(p []float64, jac *mathx.Mat) {
	sa, ca := math.Sincos(p[2])
	dw := [1]geom.Vec3{{X: -sa, Y: ca}}
	sc.jointJacobian(geom.Vec3{X: p[0], Y: p[1]}, 2, geom.Vec3{X: ca, Y: sa}, dw[:], jac)
}

// jointJacobian3D fills the residuals' Jacobian at p = (x, y, z, az,
// el, k_t, b_t); ∂w/∂az and ∂w/∂el differentiate geom.FromSpherical.
func (sc *solveScratch) jointJacobian3D(p []float64, jac *mathx.Mat) {
	se, ce := math.Sincos(p[4])
	sa, ca := math.Sincos(p[3])
	dw := [2]geom.Vec3{
		{X: -ce * sa, Y: ce * ca},
		{X: -se * ca, Y: -se * sa, Z: ce},
	}
	sc.jointJacobian(geom.Vec3{X: p[0], Y: p[1], Z: p[2]}, 3, geom.Vec3{X: ce * ca, Y: ce * sa, Z: se}, dw[:], jac)
}

// jointJacobian is the closed-form Jacobian shared by 2D and 3D. The
// columns are the nPos position coordinates, one per polarization
// angle (dw[j] = ∂w/∂angle_j), then k_t and b_t. ∂d/∂pos is the unit
// vector from the antenna to the tag, and the orientation phase
// θ = atan2(2ab, a²−b²) = 2·atan2(b, a) with a = U·w, b = V·w has
// ∂θ/∂angle = 2(a·b′ − b·a′)/(a² + b²), primes being the dot products
// with dw[j] (zero where θ is undefined, a = b = 0).
func (sc *solveScratch) jointJacobian(pos geom.Vec3, nPos int, w geom.Vec3, dw []geom.Vec3, jac *mathx.Mat) {
	const (
		slopePerM = 4 * math.Pi / rf.SpeedOfLight
		phasePerM = 4 * math.Pi * rf.CenterFrequencyHz / rf.SpeedOfLight
	)
	n, cols := len(sc.obs), jac.Cols
	ktCol, btCol := cols-2, cols-1
	clear(jac.Data)
	for i := range sc.obs {
		o := &sc.obs[i]
		delta := pos.Sub(o.Pos)
		u := [3]float64{delta.X, delta.Y, delta.Z}
		if d := delta.Norm(); d > 0 {
			for k := range u {
				u[k] /= d
			}
		}
		rk := jac.Data[i*cols : (i+1)*cols]
		rb := jac.Data[(n+i)*cols : (n+i+1)*cols]
		for k := 0; k < nPos; k++ {
			rk[k] = -sc.rwk[i] * slopePerM * u[k]
			rb[k] = -sc.rwb[i] * phasePerM * u[k]
		}
		a, b := o.Frame.U.Dot(w), o.Frame.V.Dot(w)
		if h := a*a + b*b; h > 0 {
			for j, dwj := range dw {
				da, db := o.Frame.U.Dot(dwj), o.Frame.V.Dot(dwj)
				rb[nPos+j] = -sc.rwb[i] * 2 * (a*db - b*da) / h
			}
		}
		rk[ktCol] = -sc.rwk[i]
		rb[btCol] = -sc.rwb[i]
	}
	jac.Data[2*n*cols+ktCol] = sc.rwp
}

// setPsi fills the residual-intercept buffers for pos: ψ_i and its
// sine/cosine, which the table-driven orientation scans consume.
// Serial sections only (shared buffers).
func (sc *solveScratch) setPsi(pos geom.Vec3) {
	for i := range sc.obs {
		o := &sc.obs[i]
		prop := rf.PropagationPhase(o.Pos.Dist(pos), rf.CenterFrequencyHz)
		sc.psi[i] = mathx.Wrap2Pi(o.Line.B0 - prop)
		sc.sinPsi[i], sc.cosPsi[i] = math.Sincos(sc.psi[i])
	}
}

// orientTerm returns (cos θ, sin θ) of the orientation phase
// θ = atan2(2ab, a²−b²) without evaluating any trig: since
// (2ab)² + (a²−b²)² = (a²+b²)², dividing by h = a²+b² yields the
// sine/cosine directly. A tag orthogonal to the frame (a = b = 0) has
// θ = 0 by convention, i.e. (1, 0) — matching rf.OrientationPhase.
func orientTerm(fr *geom.Frame, w geom.Vec3) (cosT, sinT float64) {
	a := fr.U.Dot(w)
	b := fr.V.Dot(w)
	h := a*a + b*b
	if h == 0 {
		return 1, 0
	}
	return (a*a - b*b) / h, 2 * a * b / h
}

// scanOrient finds the grid entry minimizing the detached orientation
// cost against the scratch's current ψ (set by setPsi). The residual
// sin/cos come from the angle-difference identities over orientTerm,
// so the whole dense scan runs without a single trig call or
// allocation. Returns the best entry index and its cost.
func (sc *solveScratch) scanOrient(g *angleGrid) (best int, bestCost float64) {
	n := sc.swb
	bestCost = math.Inf(1)
	for gi := range g.pol {
		w := g.pol[gi]
		var s, c float64
		for i := range sc.obs {
			ct, st := orientTerm(&sc.obs[i].Frame, w)
			s += sc.wb[i] * (sc.sinPsi[i]*ct - sc.cosPsi[i]*st)
			c += sc.wb[i] * (sc.cosPsi[i]*ct + sc.sinPsi[i]*st)
		}
		if cost := 1 - math.Hypot(s/n, c/n); cost < bestCost {
			bestCost, best = cost, gi
		}
	}
	return best, bestCost
}

// angleGrid is a precomputed dense grid of candidate polarization
// vectors with their generating angles (az carries α for the 2D
// grids). Grids are built once, integer-stepped — the grid point k is
// exactly start + k·step, with no float accumulation drift — and
// shared read-only by all solves.
type angleGrid struct {
	az, el []float64
	pol    []geom.Vec3
}

var (
	alphaGridOnce   sync.Once
	alphaGridTab    *angleGrid
	polarRefineOnce sync.Once
	polarRefineTab  *angleGrid
	polarCoarseOnce sync.Once
	polarCoarseTab  *angleGrid
)

// alphaGrid is the 1° grid over α ∈ [0, π) used by the 2D orientation
// refinement and the detached 2D ablation.
func alphaGrid() *angleGrid {
	alphaGridOnce.Do(func() {
		g := &angleGrid{}
		step := mathx.Rad(1)
		for i := 0; i < 180; i++ {
			a := float64(i) * step
			g.az = append(g.az, a)
			g.el = append(g.el, 0)
			g.pol = append(g.pol, rf.TagPolarization2D(a))
		}
		alphaGridTab = g
	})
	return alphaGridTab
}

// polarRefineGrid is the 2° grid over az ∈ [0, 2π) × el ∈ [−π/2, π/2]
// used by refinePolar3D, in the same az-outer/el-inner scan order as
// the historical loop (ties resolve identically).
func polarRefineGrid() *angleGrid {
	polarRefineOnce.Do(func() {
		polarRefineTab = buildPolarGrid(2*math.Pi, mathx.Rad(2))
	})
	return polarRefineTab
}

// polarCoarseGrid is the 5° grid over az ∈ [0, π) × el ∈ [−π/2, π/2]
// used by the detached 3D ablation.
func polarCoarseGrid() *angleGrid {
	polarCoarseOnce.Do(func() {
		polarCoarseTab = buildPolarGrid(math.Pi, mathx.Rad(5))
	})
	return polarCoarseTab
}

func buildPolarGrid(azSpan, step float64) *angleGrid {
	nAz := int(math.Round(azSpan / step))
	nEl := int(math.Round(math.Pi/step)) + 1 // el range inclusive of +π/2
	g := &angleGrid{
		az:  make([]float64, 0, nAz*nEl),
		el:  make([]float64, 0, nAz*nEl),
		pol: make([]geom.Vec3, 0, nAz*nEl),
	}
	for ai := 0; ai < nAz; ai++ {
		az := float64(ai) * step
		for ei := 0; ei < nEl; ei++ {
			el := -math.Pi/2 + float64(ei)*step
			g.az = append(g.az, az)
			g.el = append(g.el, el)
			g.pol = append(g.pol, rf.TagPolarization3D(az, el))
		}
	}
	return g
}

// VerifyEstimate evaluates the full joint objective for est against
// obs with exactly the weighting Solve2D/Solve3D would use (including
// the adaptive σ_B widening) — the cheap consistency check the
// stationary-tag cache runs before serving a cached estimate instead
// of re-solving.
func VerifyEstimate(obs []Observation, est Estimate, mode3D bool, opts Options) float64 {
	opts.defaults()
	sc := newSolveScratch(obs, &opts)
	if mode3D {
		return sc.jointCost3D([]float64{est.Pos.X, est.Pos.Y, est.Pos.Z, est.Azimuth, est.Elevation, est.Kt, est.Bt0})
	}
	return sc.jointCost2D([]float64{est.Pos.X, est.Pos.Y, est.Alpha, est.Kt, est.Bt0})
}
