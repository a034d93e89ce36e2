package core

import (
	"math"
	"sync"

	"rfprism/internal/geom"
	"rfprism/internal/mathx"
	"rfprism/internal/rf"
)

// solveScratch hoists the per-observation invariants of one solve —
// slope weights 1/σ_k², their sum, the k_t prior and the intercept
// weight — so the objectives evaluated thousands of times inside the
// NelderMead inner loops run allocation-free. The psi/sinPsi/cosPsi
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
	psi    []float64
	sinPsi []float64
	cosPsi []float64
	resids []float64 // adaptiveSigmaB scratch
}

// newCostScratch builds a scratch around obs with an explicit σ_B (no
// adaptive widening) — the form the exported cost probes use.
func newCostScratch(obs []Observation, sigmaB float64, prior ktPrior) *solveScratch {
	n := len(obs)
	buf := make([]float64, 6*n)
	sc := &solveScratch{
		obs:    obs,
		prior:  prior,
		wk:     buf[0:n:n],
		psi:    buf[n : 2*n : 2*n],
		sinPsi: buf[2*n : 3*n : 3*n],
		cosPsi: buf[3*n : 4*n : 4*n],
		resids: buf[4*n : 5*n : 5*n],
		wb:     buf[5*n : 6*n : 6*n],
	}
	for i := range obs {
		o := &obs[i]
		soft := obsWeight(o)
		w := soft
		if o.Line.SigmaK > 0 {
			w /= o.Line.SigmaK * o.Line.SigmaK
		}
		sc.wk[i] = w
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
