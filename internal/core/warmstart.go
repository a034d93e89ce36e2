package core

import (
	"math"
	"sort"
	"sync/atomic"

	"rfprism/internal/geom"
	"rfprism/internal/rf"
)

// SolveStats aggregates the solver fast-path counters. All fields are
// atomic so one instance can be shared by concurrent solves (the batch
// workers do); a nil Options.Stats disables counting entirely.
type SolveStats struct {
	// WarmAttempts counts solves that entered the warm fast path.
	WarmAttempts atomic.Int64
	// WarmFallbacks counts warm attempts that failed a guard and
	// re-ran the full cold path.
	WarmFallbacks atomic.Int64
	// StartsPruned counts multistart seeds demoted to the short
	// iteration budget by adaptive pruning.
	StartsPruned atomic.Int64
}

func (o Options) countWarmAttempt() {
	if o.Stats != nil {
		o.Stats.WarmAttempts.Add(1)
	}
}

func (o Options) countWarmFallback() {
	if o.Stats != nil {
		o.Stats.WarmFallbacks.Add(1)
	}
}

func (o Options) countPruned(n int) {
	if o.Stats != nil && n > 0 {
		o.Stats.StartsPruned.Add(int64(n))
	}
}

const (
	// warmSlopeFactor/warmSlopeSlack bound how much worse the warm
	// position's slope cost may be than the freshly refined slope
	// minimum before the entry guard declares the tag moved. The slack
	// keeps the test meaningful when the refined cost is ~0.
	warmSlopeFactor = 10.0
	warmSlopeSlack  = 1e-12
)

// WarmCostFloor is the joint-cost scale of a well-fit window: the
// objective has 2N residual terms of unit expected size, so a healthy
// solution costs ≈2N. Guard thresholds floor the previous window's
// cost at this scale so a lucky near-zero-cost window doesn't make
// its successor's guard impossibly tight.
func WarmCostFloor(n int) float64 { return 2 * float64(n) }

func warmCostCeiling(factor, warmCost float64, n int) float64 {
	return factor * math.Max(warmCost, WarmCostFloor(n))
}

// warmAccepted is the exit guard: the warm solution must cost no more
// than the ceiling and stay within WarmRadius of the warm position. A
// Levenberg–Marquardt start follows the smooth slope residuals a long
// way, so a moved tag can pull a warm start out of its basin-local set
// into whichever wrap basin it reaches first; picking the basin is the
// cold multistart's job.
func warmAccepted(best, warm Estimate, n int, opts Options) bool {
	return best.Cost <= warmCostCeiling(opts.WarmGuardFactor, warm.Cost, n) &&
		best.Pos.Dist(warm.Pos) <= opts.WarmRadius
}

// warmConsistent2D/3D is the entry guard: refine the slope-only fix
// starting from the warm position; if the refined fix walks away from
// the warm position AND the warm position's slope cost is far above
// the refined minimum, the tag moved basins and the warm seed is
// stale. The refined fix wandering alone is not disqualifying — the
// slope surface is shallow, and its minimum sits more than 20 cm from
// the true (and warm) position in about one window in eight even for a
// stationary tag, in the region's interior as well as along its edges.
func warmConsistent(sc *solveScratch, warmPos, refined geom.Vec3, radius float64) bool {
	if refined.Dist(warmPos) <= radius {
		return true
	}
	cWarm, _ := sc.slopeCost(warmPos)
	cRef, _ := sc.slopeCost(refined)
	return cWarm <= warmSlopeFactor*cRef+warmSlopeSlack
}

// solve2DWarm is the warm fast path: skip the coarse grid, trust the
// previous window's estimate to be in (or adjacent to) the right wrap
// basin, and run a 9-start basin-local joint multistart seeded with
// the warm orientation. Returns ok = false when either guard fails;
// the caller then runs the cold path.
func solve2DWarm(sc *solveScratch, bounds Bounds, opts Options) (Estimate, bool) {
	warm := *opts.WarmStart
	posW := refinePos2D(sc, warm.Pos, bounds, opts.GridStep)
	if !warmConsistent(sc, warm.Pos, posW, opts.WarmRadius) {
		return Estimate{}, false
	}
	starts := make([][]float64, 0, len(basinOffsets)*len(basinOffsets))
	for _, dx := range basinOffsets {
		for _, dy := range basinOffsets {
			x0 := clamp(warm.Pos.X+dx, bounds.XMin, bounds.XMax)
			y0 := clamp(warm.Pos.Y+dy, bounds.YMin, bounds.YMax)
			p0 := geom.Vec3{X: x0, Y: y0}
			_, kt0 := sc.slopeCost(p0)
			sc.setPsi(p0)
			_, bt0 := orientCost(sc.obs, sc.psi, rf.TagPolarization2D(warm.Alpha))
			starts = append(starts, []float64{x0, y0, warm.Alpha, kt0, bt0})
		}
	}
	cands := make([]Estimate, len(starts))
	parallelFor(len(starts), workerCount(opts.Parallelism, len(starts)), func(i int) {
		cands[i] = runJoint2D(sc, starts[i], bounds, jointIters2D, warm.Cost)
	})
	best := finish2D(sc, reduceMinCost(cands), bounds, opts)
	if !warmAccepted(best, warm, len(sc.obs), opts) {
		return Estimate{}, false
	}
	return best, true
}

// solve3DWarm mirrors solve2DWarm with a 7-start axis star (center
// ± one wrap basin per axis) instead of the cold path's 486 starts.
func solve3DWarm(sc *solveScratch, bounds Bounds, opts Options) (Estimate, bool) {
	warm := *opts.WarmStart
	posW := refinePos3D(sc, warm.Pos, bounds, opts.GridStep*2)
	if !warmConsistent(sc, warm.Pos, posW, opts.WarmRadius) {
		return Estimate{}, false
	}
	const basin = 0.11
	offs := [][3]float64{
		{0, 0, 0},
		{-basin, 0, 0}, {basin, 0, 0},
		{0, -basin, 0}, {0, basin, 0},
		{0, 0, -basin}, {0, 0, basin},
	}
	starts := make([][]float64, 0, len(offs))
	for _, d := range offs {
		x0 := clamp(warm.Pos.X+d[0], bounds.XMin, bounds.XMax)
		y0 := clamp(warm.Pos.Y+d[1], bounds.YMin, bounds.YMax)
		z0 := clamp(warm.Pos.Z+d[2], bounds.ZMin, bounds.ZMax)
		p0 := geom.Vec3{X: x0, Y: y0, Z: z0}
		_, kt0 := sc.slopeCost(p0)
		sc.setPsi(p0)
		_, bt0 := orientCost(sc.obs, sc.psi, rf.TagPolarization3D(warm.Azimuth, warm.Elevation))
		starts = append(starts, []float64{x0, y0, z0, warm.Azimuth, warm.Elevation, kt0, bt0})
	}
	cands := make([]Estimate, len(starts))
	parallelFor(len(starts), workerCount(opts.Parallelism, len(starts)), func(i int) {
		cands[i] = runJoint3D(sc, starts[i], bounds, jointIters3D, warm.Cost)
	})
	best := refinePolar3D(sc, reduceMinCost(cands))
	if !warmAccepted(best, warm, len(sc.obs), opts) {
		return Estimate{}, false
	}
	return best, true
}

// pruneBudgets assigns per-start iteration budgets for adaptive
// pruning: rank the starts by their start-point joint cost and keep
// the full budget only for the best PruneKeep fraction — the rest get
// the short PruneIters cap. A start that must traverse a high-cost
// entry to win is rare (the multistart exists to *begin* near every
// basin), so the bottom tranche almost never produces the winner and
// cutting it early is nearly free. Returns nil (all starts full) when
// pruning is off. The budgets are fixed deterministically before the
// parallel fan-out — ranking ties break toward the lower start index —
// so serial and parallel runs still produce identical candidates.
func pruneBudgets(starts [][]float64, costAt func([]float64) float64, opts Options) []int {
	if !opts.PruneStarts || len(starts) <= 1 {
		return nil
	}
	type ranked struct {
		cost float64
		idx  int
	}
	rk := make([]ranked, len(starts))
	for i, s := range starts {
		rk[i] = ranked{cost: costAt(s), idx: i}
	}
	sort.Slice(rk, func(a, b int) bool {
		if rk[a].cost != rk[b].cost {
			return rk[a].cost < rk[b].cost
		}
		return rk[a].idx < rk[b].idx
	})
	keep := int(math.Ceil(opts.PruneKeep * float64(len(starts))))
	if keep < 1 {
		keep = 1
	}
	if keep > len(starts) {
		keep = len(starts)
	}
	budgets := make([]int, len(starts))
	for r, e := range rk {
		if r >= keep {
			budgets[e.idx] = opts.PruneIters
		}
	}
	opts.countPruned(len(starts) - keep)
	return budgets
}

// budgetFor resolves one start's iteration budget against the pruning
// plan (nil plan or a zero entry means the full budget).
func budgetFor(budgets []int, i, full int) int {
	if budgets != nil && budgets[i] > 0 {
		return budgets[i]
	}
	return full
}
