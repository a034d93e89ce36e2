package exp

import (
	"context"
	"fmt"
	"strings"

	"rfprism"
	"rfprism/internal/core"
	"rfprism/internal/eval"
	"rfprism/internal/fit"
	"rfprism/internal/mathx"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// AblationResult reports localization/orientation accuracy for one
// solver variant.
type AblationResult struct {
	Name      string
	LocCM     eval.ErrorStats
	OrientDeg eval.ErrorStats
	Rejected  int
}

// AblationSuiteResult is the full ablation sweep of DESIGN.md §5.
type AblationSuiteResult struct {
	Variants []AblationResult
}

// RunAblations evaluates the design-choice ablations: the joint
// fine-phase stage, the k_t prior and reduced channel counts.
func RunAblations(cfg Config, reps int) (*AblationSuiteResult, error) {
	variants := []struct {
		name     string
		opts     []rfprism.Option
		channels int
	}{
		{name: "full system"},
		{name: "no fine-phase (slope-only)", opts: []rfprism.Option{
			rfprism.WithSolverOptions(core.Options{DisableFinePhase: true})}},
		{name: "no kt prior", opts: []rfprism.Option{
			rfprism.WithSolverOptions(core.Options{NoKtPrior: true})}},
		{name: "25 channels", channels: 25},
		// 10 channels sits below the default MinChannels guard, so the
		// variant relaxes it ("more than enough for a linear fitting"
		// no longer holds — that is the point of the ablation).
		{name: "10 channels", channels: 10, opts: []rfprism.Option{
			rfprism.WithRobustOptions(fit.RobustOptions{MinChannels: 6})}},
	}
	out := &AblationSuiteResult{}
	for vi, v := range variants {
		vCfg := cfg
		vCfg.Seed = cfg.Seed + int64(vi)*977
		vCfg.SysOpts = append(append([]rfprism.Option{}, cfg.SysOpts...), v.opts...)
		s, err := NewSetup(vCfg)
		if err != nil {
			return nil, err
		}
		none, err := rf.MaterialByName("none")
		if err != nil {
			return nil, err
		}
		var locErrs, orientErrs []float64
		rejected := 0
		rng := s.Scene.Rand()
		// Collect serially (alpha draws and window synthesis share the
		// scene RNG; channel subsampling is applied at collect time),
		// then disentangle the batch on the worker pool.
		var specs []TrialSpec
		for _, pos := range s.GridPositions() {
			for r := 0; r < reps; r++ {
				alpha := mathx.Rad(float64(PaperDegrees[rng.Intn(len(PaperDegrees))]))
				sp := s.CollectTrial(pos, alpha, none)
				if v.channels > 0 {
					sp.Readings = subsampleChannels(sp.Readings, v.channels)
				}
				specs = append(specs, sp)
			}
		}
		for i, o := range s.ProcessTrials(context.Background(), specs) {
			if o.Err != nil {
				rejected++
				continue
			}
			est := o.Trial.Result.Estimate
			locErrs = append(locErrs, 100*est.Pos.Dist(specs[i].Pos))
			orientErrs = append(orientErrs,
				mathx.Deg(abs(mathx.AngDiffPeriod(est.Alpha, specs[i].Alpha, mathx.Rad(180)))))
		}
		out.Variants = append(out.Variants, AblationResult{
			Name:      v.name,
			LocCM:     eval.Summarize(locErrs),
			OrientDeg: eval.Summarize(orientErrs),
			Rejected:  rejected,
		})
	}
	return out, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// subsampleChannels keeps every k-th channel so that about n channels
// survive — the channel-count ablation.
func subsampleChannels(win []sim.Reading, n int) []sim.Reading {
	if n <= 0 || n >= rf.NumChannels {
		return win
	}
	stride := rf.NumChannels / n
	if stride < 1 {
		stride = 1
	}
	out := win[:0:0]
	for _, r := range win {
		if r.Channel%stride == 0 {
			out = append(out, r)
		}
	}
	return out
}

// String renders the ablation table.
func (r *AblationSuiteResult) String() string {
	var b strings.Builder
	b.WriteString("Ablations (localization cm / orientation deg)\n")
	t := eval.Table{Header: []string{"variant", "loc mean", "loc p90", "orient mean", "orient p90", "rejected"}}
	for _, v := range r.Variants {
		t.AddRow(v.Name,
			fmt.Sprintf("%.2f", v.LocCM.Mean), fmt.Sprintf("%.2f", v.LocCM.P90),
			fmt.Sprintf("%.2f", v.OrientDeg.Mean), fmt.Sprintf("%.2f", v.OrientDeg.P90),
			fmt.Sprintf("%d", v.Rejected))
	}
	b.WriteString(t.String())
	return b.String()
}
