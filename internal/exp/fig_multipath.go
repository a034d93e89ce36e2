package exp

import (
	"context"
	"fmt"
	"strings"

	"rfprism"
	"rfprism/internal/eval"
	"rfprism/internal/mathx"
	"rfprism/internal/rf"
)

// Fig12Result compares the system across environments (paper:
// localization 7.61/9.21/14.82 cm, orientation 8.59/10.98/19.33°,
// material accuracy 0.88/0.82/0.65 for clean / multipath with
// suppression / multipath without suppression).
type Fig12Result struct {
	Scenarios []string
	LocCM     []float64
	OrientDeg []float64
	MatAcc    []float64
	Rejected  []int
}

// RunFig12 runs a reduced localization+material campaign in each of
// the three scenarios. reps controls the per-position repetitions of
// the localization part; spec sizes the material part.
func RunFig12(cfg Config, reps int, spec MatSpec) (*Fig12Result, error) {
	multipath := rf.LabMultipath()
	scenarios := []struct {
		name string
		env  rf.Environment
		opts []rfprism.Option
	}{
		{name: "clean space", env: cfg.env()},
		{name: "multipath + suppression", env: multipath},
		{name: "multipath (no suppression)", env: multipath, opts: []rfprism.Option{
			rfprism.WithoutChannelSelection(), rfprism.WithoutErrorDetector(),
		}},
	}
	out := &Fig12Result{}
	for i, sc := range scenarios {
		env := sc.env
		scCfg := cfg
		scCfg.Seed = cfg.Seed + int64(i)*1000
		scCfg.Env = &env
		scCfg.SysOpts = append(append([]rfprism.Option{}, cfg.SysOpts...), sc.opts...)

		s, err := NewSetup(scCfg)
		if err != nil {
			return nil, err
		}
		locErrs, orientErrs, rejected, err := locRow(s, reps)
		if err != nil {
			return nil, err
		}

		matCampaign, err := RunMatCampaign(scCfg, spec)
		if err != nil {
			return nil, err
		}
		fig10, err := RunFig10And11(matCampaign)
		if err != nil {
			return nil, err
		}

		out.Scenarios = append(out.Scenarios, sc.name)
		out.LocCM = append(out.LocCM, mathx.Mean(locErrs))
		out.OrientDeg = append(out.OrientDeg, mathx.Mean(orientErrs))
		out.MatAcc = append(out.MatAcc, fig10.OverallAcc)
		out.Rejected = append(out.Rejected, rejected+matCampaign.Rejected)
	}
	return out, nil
}

// locRow runs the localization part of one Fig. 12 scenario: reps
// windows per grid position, each at a random paper degree. It returns
// the per-window localization (cm) and orientation (deg) errors and the
// number of windows the error detector rejected.
func locRow(s *Setup, reps int) (locErrs, orientErrs []float64, rejected int, err error) {
	none, err := rf.MaterialByName("none")
	if err != nil {
		return nil, nil, 0, err
	}
	rng := s.Scene.Rand()
	// Serial collection (the alpha draws and window synthesis share
	// the scene RNG), parallel disentangling.
	var specs []TrialSpec
	for _, pos := range s.GridPositions() {
		for r := 0; r < reps; r++ {
			alpha := mathx.Rad(float64(PaperDegrees[rng.Intn(len(PaperDegrees))]))
			specs = append(specs, s.CollectTrial(pos, alpha, none))
		}
	}
	for _, o := range s.ProcessTrials(context.Background(), specs) {
		if o.Err != nil {
			rejected++
			continue
		}
		locErrs = append(locErrs, o.Trial.LocErrM*100)
		orientErrs = append(orientErrs, o.Trial.OrientErrDeg)
	}
	return locErrs, orientErrs, rejected, nil
}

// String renders Fig. 12.
func (r *Fig12Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 12: system performance in different environments\n")
	t := eval.Table{Header: []string{"scenario", "loc err (cm)", "orient err (deg)", "material acc", "rejected"}}
	paperLoc := []string{"7.61", "9.21", "14.82"}
	paperOri := []string{"8.59", "10.98", "19.33"}
	paperAcc := []string{"0.88", "0.82", "0.65"}
	for i, sc := range r.Scenarios {
		t.AddRow(sc,
			fmt.Sprintf("%.2f (paper %s)", r.LocCM[i], paperLoc[i]),
			fmt.Sprintf("%.2f (paper %s)", r.OrientDeg[i], paperOri[i]),
			fmt.Sprintf("%.2f (paper %s)", r.MatAcc[i], paperAcc[i]),
			fmt.Sprintf("%d", r.Rejected[i]))
	}
	b.WriteString(t.String())
	return b.String()
}
