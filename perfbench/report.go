package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rfprism"
	"rfprism/internal/ingest"
	"rfprism/internal/rf"
)

// replays times, on their own, the journal and the sessionizer over the
// workload's timed stream, the solver pipeline over a sample of its
// windows, and — where the stack runs without the likelihood layer —
// the confidence stage. They run before the stack exists, so nothing
// else competes.
func (o *outcome) replays(w *workload, expected map[winKey]expWindow, timedWant map[winKey]bool) error {
	timed := w.readings[w.timedFrom:]

	dir := filepath.Join(o.cfg.dir, "replay-journal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	j, err := ingest.OpenJournal(ingest.JournalConfig{Dir: dir})
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, rd := range timed {
		if _, _, err := j.Append(rd); err != nil {
			_ = j.Close()
			return fmt.Errorf("journal replay: %w", err)
		}
	}
	o.journalAppendUS = float64(time.Since(t0)) / float64(time.Microsecond) / float64(len(timed))
	if err := j.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}

	z := ingest.NewSessionizer(ingest.SessionizerConfig{CoverageClose: coverageClose, MinAntennas: minAntennas})
	now := time.Now()
	t0 = time.Now()
	for i, rd := range timed {
		if _, _, err := z.AddSeq(rd, uint64(i+1), now); err != nil {
			return fmt.Errorf("sessionizer replay: %w", err)
		}
	}
	o.sessionizeUS = float64(time.Since(t0)) / float64(time.Microsecond) / float64(len(timed))

	// The solver pipeline alone: the warm-up windows, then the first
	// soloSample timed windows, in closing order, through one serial
	// System with the stack's options. Its time per window is the
	// pipeline's busy time free of contention.
	const soloSample = 60
	var warmWins, timedWins []expWindow
	for k, ew := range expected {
		switch {
		case ew.tail:
		case timedWant[k]:
			timedWins = append(timedWins, ew)
		default:
			warmWins = append(warmWins, ew)
		}
	}
	byLast := func(ws []expWindow) {
		sort.Slice(ws, func(a, b int) bool { return ws[a].last < ws[b].last })
	}
	byLast(warmWins)
	byLast(timedWins)
	timedWins = timedWins[:min(soloSample, len(timedWins))]
	solo := func(confidence bool, ws []expWindow) (map[rfprism.Stage]rfprism.StageStat, error) {
		stages := rfprism.NewStageStats()
		sys, err := buildSystem(stackOpts{confidence: confidence, serial: true}, stages)
		if err != nil {
			return nil, err
		}
		sys.ProcessWindows(context.Background(), windowsOf(w, warmWins))
		before := stageMap(stages)
		sys.ProcessWindows(context.Background(), windowsOf(w, ws))
		out := stageMap(stages)
		for st, v := range out {
			v.Count -= before[st].Count
			v.Total -= before[st].Total
			out[st] = v
		}
		return out, nil
	}
	alone, err := solo(w.confidence, timedWins)
	if err != nil {
		return err
	}
	n := float64(len(timedWins))
	o.soloWindowMS = ms(alone[rfprism.StageWindow].Total) / n
	o.soloSolveMS = ms(alone[rfprism.StageSolve].Total) / n
	if !w.confidence {
		// The stack runs without the likelihood layer: time the stage on
		// a few of the same windows with it switched on.
		conf, err := solo(true, timedWins[:min(8, len(timedWins))])
		if err != nil {
			return err
		}
		o.confReplayMS = ms(conf[rfprism.StageConfidence].Avg())
	}
	return o.detectorReplay(w.confidence)
}

// detectorProbe clean windows read at detectorProbeReads reads per
// channel dwell are solved in detectorReplay.
const (
	detectorProbe      = 64
	detectorProbeReads = 4
)

// detectorReplay counts how many of detectorProbe clean windows, read
// at detectorProbeReads reads per channel dwell at poses drawn from the
// run's seed, the error detector rejects on a stand-alone System with
// the workload's options. The workloads read at 3 and 16 reads per
// dwell, where the detector almost never misfires (README, Findings);
// this count is where its misfires at 4 reads show.
func (o *outcome) detectorReplay(confidence bool) error {
	none, err := rf.MaterialByName("none")
	if err != nil {
		return err
	}
	sc, err := newScene(o.cfg.seed^0xde7ec7, detectorProbeReads)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.cfg.seed ^ 0xde7ec7))
	wins := make([]rfprism.Window, detectorProbe)
	for i := range wins {
		wins[i].Readings, err = tagRoundRetry(sc, sc.NewTag(fmt.Sprintf("X%03d", i)), randomPose(rng, 0.1), none)
		if err != nil {
			return err
		}
	}
	sys, err := buildSystem(stackOpts{confidence: confidence}, nil)
	if err != nil {
		return err
	}
	o.detectorRejects = 0
	for _, r := range sys.ProcessWindows(context.Background(), wins) {
		if errors.Is(r.Err, rfprism.ErrWindowRejected) {
			o.detectorRejects++
		}
	}
	fmt.Fprintf(o.cfg.log, "# error detector: %d of %d clean windows at %d reads per dwell rejected\n",
		o.detectorRejects, detectorProbe, detectorProbeReads)
	return nil
}

// windowsOf collects each window's readings from the stream.
func windowsOf(w *workload, ws []expWindow) []rfprism.Window {
	out := make([]rfprism.Window, len(ws))
	for i, ew := range ws {
		out[i].Tag = ew.epc
		for j := ew.first; j <= ew.last; j++ {
			if w.readings[j].EPC == ew.epc {
				out[i].Readings = append(out[i].Readings, w.readings[j])
			}
		}
	}
	return out
}

// endToEnd is the untraced run's report.
func (o *outcome) endToEnd() result {
	m := map[string]metric{
		"windows_per_s":     {o.windowsPerS, "windows/s"},
		"cpu_ms_per_window": {o.cpuPerWindowMS, "ms"},
		"visible_p50_ms":    {quantile(o.visible, 0.5), "ms"},
		"read_p50_ms":       {quantile(o.reads, 0.5), "ms"},
		"heap_live_mb":      {o.heapMB, "MB"},
		"setup_s":           {o.setupS, "s"},
	}
	return result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: m}
}

// perLayer is the traced run's report.
func (o *outcome) perLayer() result {
	stage := func(s rfprism.Stage) rfprism.StageStat { return o.stages[s] }
	avgMS := func(s rfprism.Stage) float64 {
		st := stage(s)
		if st.Count == 0 {
			return 0
		}
		return ms(st.Total) / float64(st.Count)
	}
	confMS := avgMS(rfprism.StageConfidence)
	if stage(rfprism.StageConfidence).Count == 0 {
		confMS = o.confReplayMS
	}
	ratio := 0.0
	if n := o.solve.CacheHits + o.solve.CacheMisses; n > 0 {
		ratio = float64(o.solve.CacheHits) / float64(n)
	}
	m := map[string]metric{
		"router.post_ms":              {quantile(o.postMS, 0.5), "ms"},
		"router.shard_skew":           {o.skew, "ratio"},
		"ingest.backpressure_rounds":  {float64(o.retries), "count"},
		"ingest.to_solver_ms":         {quantile(o.toSolver, 0.5), "ms"},
		"rfprism.in_solver_ms":        {quantile(o.inSolver, 0.5), "ms"},
		"ingest.ledger_ms":            {quantile(o.ledger, 0.5), "ms"},
		"serve.visible_lag_ms":        {quantile(o.lag, 0.5), "ms"},
		"ingest.journal_append_us":    {o.journalAppendUS, "us"},
		"ingest.sessionize_us":        {o.sessionizeUS, "us"},
		"rfprism.window_ms":           {avgMS(rfprism.StageWindow), "ms"},
		"rfprism.failed_windows":      {float64(o.failed), "count"},
		"rfprism.detector_rejects":    {float64(o.detectorRejects), "count"},
		"preprocess.spectra_ms":       {avgMS(rfprism.StageSpectra), "ms"},
		"fit.fit_us":                  {1000 * avgMS(rfprism.StageFit), "us"},
		"fit.select_us":               {1000 * avgMS(rfprism.StageSelect), "us"},
		"core.solve_ms":               {avgMS(rfprism.StageSolve), "ms"},
		"core.confidence_ms":          {confMS, "ms"},
		"core.cache_hits":             {float64(o.solve.CacheHits), "count"},
		"core.cache_misses":           {float64(o.solve.CacheMisses), "count"},
		"core.cache_hit_ratio":        {ratio, "ratio"},
		"core.warm_attempts":          {float64(o.solve.WarmAttempts), "count"},
		"core.warm_fallbacks":         {float64(o.solve.WarmFallbacks), "count"},
		"runtime.alloc_kb_per_window": {o.allocKBPerWindow, "KB"},
	}
	return result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: m}
}
