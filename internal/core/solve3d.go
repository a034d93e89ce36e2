package core

import (
	"fmt"
	"math"

	"rfprism/internal/geom"
	"rfprism/internal/mathx"
	"rfprism/internal/rf"
)

// Solve3D disentangles a window observed by ≥4 antennas for a tag
// anywhere in the bounds box with arbitrary 3D polarization — the
// seven-unknown extension the paper describes in §IV-C and lists as
// future work in §VII (four antennas suffice: 8 equations, 7
// unknowns).
func Solve3D(obs []Observation, bounds Bounds, opts Options) (Estimate, error) {
	opts.defaults()
	if len(obs) < MinAntennas(true) {
		return Estimate{}, fmt.Errorf("%w: have %d, need 4 for 3D", ErrTooFewAntennas, len(obs))
	}
	if bounds.ZMax < bounds.ZMin {
		return Estimate{}, fmt.Errorf("core: invalid z bounds [%g, %g]", bounds.ZMin, bounds.ZMax)
	}

	sc := newSolveScratch(obs, &opts)

	// Warm fast path, guarded exactly like the 2D one.
	if opts.WarmStart != nil && !opts.DisableFinePhase {
		opts.countWarmAttempt()
		if est, ok := solve3DWarm(sc, bounds, opts); ok {
			return est, nil
		}
		opts.countWarmFallback()
	}

	// Stage 1: wrap-free coarse position from the slopes.
	posA := gridSearch3D(sc, bounds, opts.GridStep*2, opts.Parallelism)
	posA = refinePos3D(sc, posA, bounds, opts.GridStep*2)

	if opts.DisableFinePhase {
		return solveDetached3D(sc, posA), nil
	}

	// Stage 2: joint multistart over wrap-basin position offsets and
	// polarization starts. As in Solve2D, the starts are independent
	// optimizer runs fanned out across the worker pool and reduced
	// deterministically (min cost, ties to the lowest start index).
	offsets := []float64{-0.11, 0, 0.11}
	azStarts := 6
	elStarts := []float64{-mathx.Rad(45), 0, mathx.Rad(45)}
	starts := make([][]float64, 0, len(offsets)*len(offsets)*len(offsets)*azStarts*len(elStarts))
	for _, dx := range offsets {
		for _, dy := range offsets {
			for _, dz := range offsets {
				x0 := clamp(posA.X+dx, bounds.XMin, bounds.XMax)
				y0 := clamp(posA.Y+dy, bounds.YMin, bounds.YMax)
				z0 := clamp(posA.Z+dz, bounds.ZMin, bounds.ZMax)
				start := geom.Vec3{X: x0, Y: y0, Z: z0}
				_, kt0 := sc.slopeCost(start)
				sc.setPsi(start)
				for a := 0; a < azStarts; a++ {
					az0 := float64(a) * math.Pi / float64(azStarts)
					for _, el0 := range elStarts {
						_, bt0 := orientCost(sc.obs, sc.psi, rf.TagPolarization3D(az0, el0))
						starts = append(starts, []float64{x0, y0, z0, az0, el0, kt0, bt0})
					}
				}
			}
		}
	}
	budgets := pruneBudgets(starts, sc.jointCost3D, opts)
	cands := make([]Estimate, len(starts))
	parallelFor(len(starts), workerCount(opts.Parallelism, len(starts)), func(i int) {
		cands[i] = runJoint3D(sc, starts[i], bounds, budgetFor(budgets, i, jointIters3D), 0)
	})
	return refinePolar3D(sc, reduceMinCost(cands)), nil
}

// refinePolar3D re-estimates the 3D polarization with a dense grid at
// the solved position (the joint optimizer can stall in a local minimum
// of the angle-doubled response), keeping the result only when it
// lowers the joint cost. The 2° scan runs trig-free over the
// precomputed polarization table; the simplex refinement and the final
// b_t profile use the exact objective.
func refinePolar3D(sc *solveScratch, est Estimate) Estimate {
	sc.setPsi(est.Pos)
	g := polarRefineGrid()
	bi, _ := sc.scanOrient(g)
	step := mathx.Rad(2)
	angles, _ := mathx.NelderMead(func(v []float64) float64 {
		c, _ := orientCost(sc.obs, sc.psi, rf.TagPolarization3D(v[0], v[1]))
		return c
	}, []float64{g.az[bi], g.el[bi]}, step, 200)
	_, bt0 := orientCost(sc.obs, sc.psi, rf.TagPolarization3D(angles[0], angles[1]))
	cand := []float64{est.Pos.X, est.Pos.Y, est.Pos.Z, angles[0], angles[1], est.Kt, bt0}
	if c := sc.jointCost3D(cand); c < est.Cost {
		est.Azimuth, est.Elevation = normalizePolar3D(angles[0], angles[1])
		est.Bt0 = mathx.Wrap2Pi(bt0)
		est.Cost = c
	}
	return est
}

// jointCost3D is the 2N-equation objective at parameter vector
// p = (x, y, z, azimuth, elevation, k_t, b_t).
func jointCost3D(obs []Observation, p []float64, sigmaB float64, prior ktPrior) float64 {
	pos := geom.Vec3{X: p[0], Y: p[1], Z: p[2]}
	w := rf.TagPolarization3D(p[3], p[4])
	kt, bt0 := p[5], p[6]
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

// runJoint3D runs one Levenberg–Marquardt start of the joint 3D
// multistart; target > 0 stops it early once it matches that cost
// (warm path). As in runJoint2D, the start and every step are kept
// inside the bounds and the cost is re-evaluated with jointCost3D at the
// returned point.
func runJoint3D(sc *solveScratch, p0 []float64, bounds Bounds, maxIter int, target float64) Estimate {
	ws := lmWorkspaces.Get().(*mathx.LMWorkspace)
	defer lmWorkspaces.Put(ws)
	lo, hi := bounds.lmBox3D()
	res, _ := ws.Solve(mathx.LMProblem{
		NumResiduals: 2*len(sc.obs) + 1,
		NumParams:    7,
		Residuals:    sc.jointResiduals3D,
		Jacobian:     sc.jointJacobian3D,
		Lower:        lo[:],
		Upper:        hi[:],
	}, p0, jointLMOptions(maxIter, target))
	p := res.Params
	az, el := normalizePolar3D(p[3], p[4])
	return Estimate{
		Pos:       geom.Vec3{X: p[0], Y: p[1], Z: p[2]},
		Azimuth:   az,
		Elevation: el,
		Kt:        p[5],
		Bt0:       mathx.Wrap2Pi(p[6]),
		Cost:      sc.jointCost3D(p),
	}
}

func solveDetached3D(sc *solveScratch, pos geom.Vec3) Estimate {
	costK, kt := sc.slopeCost(pos)
	sc.setPsi(pos)
	g := polarCoarseGrid()
	bi, best := sc.scanOrient(g)
	_, bt0 := orientCost(sc.obs, sc.psi, rf.TagPolarization3D(g.az[bi], g.el[bi]))
	return Estimate{
		Pos:       pos,
		Azimuth:   g.az[bi],
		Elevation: g.el[bi],
		Kt:        kt,
		Bt0:       bt0,
		Cost:      costK + best,
	}
}

// gridSearch3D scans the bounds box for the minimum slope cost,
// sharded by x-slab across the worker pool with the same
// order-preserving reduction as gridSearch2D.
func gridSearch3D(sc *solveScratch, bounds Bounds, step float64, parallelism int) geom.Vec3 {
	xs := gridAxis(bounds.XMin, bounds.XMax, step)
	ys := gridAxis(bounds.YMin, bounds.YMax, step)
	zs := gridAxis(bounds.ZMin, bounds.ZMax, step)
	type rowBest struct {
		cost float64
		pos  geom.Vec3
	}
	rows := make([]rowBest, len(xs))
	parallelFor(len(xs), workerCount(parallelism, len(xs)), func(i int) {
		rb := rowBest{cost: math.Inf(1)}
		for _, y := range ys {
			for _, z := range zs {
				p := geom.Vec3{X: xs[i], Y: y, Z: z}
				c, _ := sc.slopeCost(p)
				if c < rb.cost {
					rb = rowBest{cost: c, pos: p}
				}
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

func refinePos3D(sc *solveScratch, start geom.Vec3, bounds Bounds, scale float64) geom.Vec3 {
	refined, _ := mathx.NelderMead(func(v []float64) float64 {
		p := geom.Vec3{
			X: clamp(v[0], bounds.XMin, bounds.XMax),
			Y: clamp(v[1], bounds.YMin, bounds.YMax),
			Z: clamp(v[2], bounds.ZMin, bounds.ZMax),
		}
		c, _ := sc.slopeCost(p)
		return c
	}, []float64{start.X, start.Y, start.Z}, scale, 400)
	return geom.Vec3{
		X: clamp(refined[0], bounds.XMin, bounds.XMax),
		Y: clamp(refined[1], bounds.YMin, bounds.YMax),
		Z: clamp(refined[2], bounds.ZMin, bounds.ZMax),
	}
}

// normalizePolar3D maps a polarization direction to its canonical
// representative (a dipole and its negation are the same
// polarization): the hemisphere with z ≥ 0, ties broken toward
// y ≥ 0 then x ≥ 0.
func normalizePolar3D(az, el float64) (float64, float64) {
	v := rf.TagPolarization3D(az, el)
	if v.Z < 0 || (v.Z == 0 && v.Y < 0) || (v.Z == 0 && v.Y == 0 && v.X < 0) {
		v = v.Scale(-1)
	}
	return v.Spherical()
}

// PolarizationError returns the angular error (radians, in [0, π/2])
// between two dipole polarization directions, accounting for the 180°
// ambiguity.
func PolarizationError(az1, el1, az2, el2 float64) float64 {
	a := rf.TagPolarization3D(az1, el1)
	b := rf.TagPolarization3D(az2, el2)
	d := math.Abs(a.Dot(b))
	if d > 1 {
		d = 1
	}
	return math.Acos(d)
}

// JointCost3DForTest exposes jointCost3D for diagnostics.
func JointCost3DForTest(obs []Observation, p []float64, sigmaB float64) float64 {
	return jointCost3D(obs, p, sigmaB, ktPrior{})
}
