package exp

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"rfprism/internal/geom"
	"rfprism/internal/mathx"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// accuracySeeds are the campaign seeds of the accuracy gate. Seed s
// drives the Fig. 8/9 campaign and the 3D study; the Fig. 12 multipath
// row uses s+1000, as RunFig12 seeds its second scenario.
var accuracySeeds = []int64{1, 2, 3, 4, 5}

// accuracyBaseline is the recorded per-seed value of every gated
// metric, in accuracySeeds order. The Fig. 8/9 and 3D rows were
// measured with the Nelder–Mead joint multistart that preceded the
// Levenberg–Marquardt one, the region-edge row with the 294-start
// (±24 cm) Levenberg–Marquardt multistart that preceded the 54-start one,
// and the multipath rows with the 54-start one, which improved them by
// 0.68 cm and 0.29°. The campaigns are seeded, so a solver change and
// the baseline see the same scenes and the scene-to-scene spread
// cancels seed by seed: the gate compares paired values. A metric fails
// when the mean over the seeds of its per-seed difference (measured −
// baseline) exceeds tol, in the metric's unit. The 2D rows allow 2% of
// the baseline mean; neither the Levenberg–Marquardt rewrite nor the
// cut to 54 starts moved the Fig. 8/9 or region-edge rows by 0.001. A
// 2D row (seedBound) also fails when any one seed's difference exceeds
// twice tol: its per-seed differences are all 0.000 at the recorded
// solver, and a cut that moves one seed far can hide under the mean —
// one orientation start per offset moves Fig. 9 by +0.27° on the mean
// but by +0.67° on one seed. The
// 3D rows allow about two more mirror-flipped trials over the 120: a
// flip moves its seed's polarization mean by about 2°, and the
// rewrite's own paired polarization differences (−0.02, −0.16, +2.07,
// −0.09, −0.13°, one flip on seed 3) have a mean of +0.34° with twice
// their standard error at 0.87°. Detector rejects are a count and must
// not exceed the baseline total.
var accuracyBaseline = []struct {
	name      string
	perSeed   []float64
	tol       float64
	seedBound bool // also bound each seed's difference by 2×tol
}{
	// RunLocCampaign(reps 1): 25 positions × 6 degrees.
	{"fig8 localization mean (cm)", []float64{6.307, 6.805, 8.073, 8.083, 9.046}, 0.15, true},
	{"fig9 orientation mean (deg)", []float64{12.485, 13.654, 11.500, 15.162, 14.084}, 0.30, true},
	// locRow(reps 2) in rf.LabMultipath with suppression.
	{"fig12 multipath localization mean (cm)", []float64{21.670, 19.898, 34.748, 27.734, 34.572}, 0.55, true},
	{"fig12 multipath orientation mean (deg)", []float64{37.264, 36.525, 43.095, 42.911, 38.558}, 0.79, true},
	// RunStudy3D(24).
	{"3d position mean (cm)", []float64{2.676, 3.368, 4.793, 6.475, 4.343}, 0.15, false},
	{"3d polarization mean (deg)", []float64{30.030, 21.780, 24.909, 29.051, 30.103}, 1.0, false},
	{"3d mirror-ambiguity trials (of 24)", []float64{8, 3, 5, 6, 7}, 0.4, false},
	// edgeRow: 16 positions 3 cm inside the region border × 6 degrees.
	{"region-edge localization mean (cm)", []float64{5.909, 5.788, 7.300, 8.908, 7.660}, 0.14, true},
}

// accuracyBaselineRejects is the baseline's total of detector-rejected
// windows over every campaign and seed.
const accuracyBaselineRejects = 0

// accuracyRun measures one seed's gated metrics (accuracyBaseline
// order) and its detector rejects.
func accuracyRun(t *testing.T, seed int64) (vals []float64, rejected int) {
	t.Helper()
	camp, err := RunLocCampaign(Config{Seed: seed}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	mp := rf.LabMultipath()
	s, err := NewSetup(Config{Seed: seed + 1000, Env: &mp})
	if err != nil {
		t.Fatal(err)
	}
	mpLoc, mpOrient, mpRejected, err := locRow(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := RunStudy3D(Config{Seed: seed}, 24)
	if err != nil {
		t.Fatal(err)
	}
	edgeLoc, edgeRejected, err := edgeRow(seed)
	if err != nil {
		t.Fatal(err)
	}
	vals = []float64{
		Fig8(camp).OverallCM, Fig9(camp).OverallDeg,
		mathx.Mean(mpLoc), mathx.Mean(mpOrient),
		d3.PosCM.Mean, d3.PolDeg.Mean, float64(d3.Mirrored),
		mathx.Mean(edgeLoc),
	}
	return vals, camp.Rejected + mpRejected + d3.Rejected + edgeRejected
}

// edgePositions are 16 tag positions 3 cm inside the border of region
// r: its four corners and three evenly spaced points along each edge,
// where the bounds clamp the joint multistart's offset starts.
func edgePositions(r sim.WorkingRegion) []geom.Vec3 {
	const inset = 0.03
	x0, y0 := r.XMin+inset, r.YMin+inset
	dx, dy := (r.XMax-r.XMin-2*inset)/4, (r.YMax-r.YMin-2*inset)/4
	var pts []geom.Vec3
	for iy := 0; iy <= 4; iy++ {
		for ix := 0; ix <= 4; ix++ {
			if ix == 0 || ix == 4 || iy == 0 || iy == 4 {
				pts = append(pts, geom.Vec3{X: x0 + float64(ix)*dx, Y: y0 + float64(iy)*dy})
			}
		}
	}
	return pts
}

// edgeRow localizes a neutral-mount tag at every edgePositions point
// of the paper's region, rotated through every PaperDegrees angle,
// and returns the localization errors (cm) and the detector rejects.
func edgeRow(seed int64) (locErrs []float64, rejected int, err error) {
	s, err := NewSetup(Config{Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	none, err := rf.MaterialByName("none")
	if err != nil {
		return nil, 0, err
	}
	var specs []TrialSpec
	for _, pos := range edgePositions(s.Region) {
		for _, deg := range PaperDegrees {
			specs = append(specs, s.CollectTrial(pos, mathx.Rad(float64(deg)), none))
		}
	}
	for _, o := range s.ProcessTrials(context.Background(), specs) {
		if o.Err != nil {
			rejected++
			continue
		}
		locErrs = append(locErrs, o.Trial.LocErrM*100)
	}
	return locErrs, rejected, nil
}

// meanSE returns the mean of xs and the standard error of that mean.
func meanSE(xs []float64) (mean, se float64) {
	mean = mathx.Mean(xs)
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(ss / float64(len(xs)-1))
	return mean, sd / math.Sqrt(float64(len(xs)))
}

// TestAccuracyGate is the solver's accuracy floor: reduced, seeded runs
// of the Fig. 8/9 localization/orientation campaign, the Fig. 12
// multipath row and the 3D study, each gated seed by seed against the
// recorded baseline. A regression past a tolerance fails; a gain past
// it is logged so the baseline can be re-recorded.
func TestAccuracyGate(t *testing.T) {
	if raceEnabled {
		t.Skip("campaign-sized statistics test; CI runs it in its own step without -race")
	}
	diffs := make([][]float64, len(accuracyBaseline))
	rejected := 0
	for si, seed := range accuracySeeds {
		vals, rej := accuracyRun(t, seed)
		for i, v := range vals {
			diffs[i] = append(diffs[i], v-accuracyBaseline[i].perSeed[si])
		}
		rejected += rej
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %9s %9s %9s %7s  %s\n", "metric", "baseline", "got", "Δ mean", "tol", "Δ per seed (± se)")
	for i, m := range accuracyBaseline {
		d, se := meanSE(diffs[i])
		base := mathx.Mean(m.perSeed)
		fmt.Fprintf(&b, "%-40s %9.3f %9.3f %+9.3f %7.3f ", m.name, base, base+d, d, m.tol)
		for _, v := range diffs[i] {
			fmt.Fprintf(&b, " %+.3f", v)
		}
		fmt.Fprintf(&b, " (± %.3f)\n", se)
		switch {
		case d > m.tol:
			t.Errorf("%s: mean per-seed difference %+.3f over seeds %v exceeds its tolerance %.3f (baseline mean %.3f)",
				m.name, d, accuracySeeds, m.tol, base)
		case d < -m.tol:
			t.Logf("%s improved past its tolerance (%+.3f): re-record accuracyBaseline", m.name, d)
		}
		if m.seedBound {
			for si, v := range diffs[i] {
				if v > 2*m.tol {
					t.Errorf("%s: seed %d difference %+.3f exceeds twice its tolerance %.3f (baseline %.3f)",
						m.name, accuracySeeds[si], v, m.tol, m.perSeed[si])
				}
			}
		}
	}
	t.Log("\n" + b.String())
	if rejected > accuracyBaselineRejects {
		t.Errorf("detector rejected %d windows over seeds %v, baseline %d", rejected, accuracySeeds, accuracyBaselineRejects)
	}
}
