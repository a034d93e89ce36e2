// Package rfprism is a Go reproduction of "RF-Prism: Versatile
// RFID-based Sensing through Phase Disentangling" (ICDCS 2021).
//
// RF-Prism disentangles the phase of a backscattered RFID signal into
// its propagation, orientation and material components by combining
// frequency diversity (the reader's 50-channel hop sequence) with
// spatial diversity (3–4 antennas), enabling simultaneous
// calibration-free localization, orientation sensing and material
// identification from a single hop round of phase readings.
//
// The high-level entry point is System: configure it with the
// deployment geometry, feed it the raw readings of one hop round
// (from the bundled testbed simulator or any source producing the
// same tuples), and receive the disentangled estimate.
//
//	ants := sim.PaperAntennas2D(nil)
//	sys, _ := rfprism.NewSystem(rfprism.DeploymentFromSim(ants), rfprism.Bounds2D(sim.PaperRegion()))
//	res, err := sys.ProcessWindow(readings)
//	// res.Estimate.Pos, res.Estimate.Alpha, res.Estimate.Kt, ...
package rfprism

import (
	"errors"
	"fmt"
	"math"
	"time"

	"rfprism/internal/core"
	"rfprism/internal/fit"
	"rfprism/internal/geom"
	"rfprism/internal/mathx"
	"rfprism/internal/preprocess"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// ErrWindowRejected is returned by ProcessWindow when the error
// detector (§V-C) flags the window as collected from a moving or
// rotating tag (or as too corrupted to trust).
var ErrWindowRejected = errors.New("rfprism: window rejected by error detector")

// AntennaGeometry is the surveyed geometry of one reader antenna.
type AntennaGeometry struct {
	ID        int
	Pos       geom.Vec3
	Boresight geom.Vec3
}

// DeploymentFromSim converts simulator antennas to their surveyed
// geometry (what the sensing side is allowed to know: positions and
// directions, not hardware offsets).
func DeploymentFromSim(ants []sim.Antenna) []AntennaGeometry {
	out := make([]AntennaGeometry, len(ants))
	for i, a := range ants {
		out[i] = AntennaGeometry{ID: a.ID, Pos: a.Pos, Boresight: a.Boresight}
	}
	return out
}

// Bounds re-exports the solver search bounds.
type Bounds = core.Bounds

// Bounds2D builds solver bounds from a working region.
func Bounds2D(r sim.WorkingRegion) Bounds {
	return Bounds{XMin: r.XMin, XMax: r.XMax, YMin: r.YMin, YMax: r.YMax}
}

// Estimate re-exports the disentangled state of one window.
type Estimate = core.Estimate

// Confidence re-exports the likelihood-level quality block of one
// estimate (covariance, per-axis CIs, normalized log-likelihood,
// 2π-ambiguity margin); see core.Confidence and WithConfidence.
type Confidence = core.Confidence

// Result is the full output of processing one window.
type Result struct {
	// Estimate is the disentangled tag state.
	Estimate Estimate
	// Lines are the per-antenna phase-vs-frequency fits of the
	// antennas that contributed, in deployment order (Health reports
	// which antennas those are).
	Lines []fit.Line
	// Linearity are the per-antenna error-detector reports, aligned
	// with Lines.
	Linearity []fit.LinearityReport
	// Spectra are the preprocessed per-antenna spectra, aligned with
	// Lines.
	Spectra []preprocess.Spectrum
	// Spans are the per-stage trace spans of the attempt that produced
	// this result (nil unless the System has a Tracer, see WithTracer).
	Spans []Span
	// Confidence is the likelihood-level quality block (nil unless the
	// System runs WithConfidence and the post-pass succeeded).
	Confidence *Confidence

	health *Health
}

// Health returns the window's degradation report: every deployed
// antenna's fate plus the degraded flag. It has the same accessor shape
// as WindowResult.Health, so callers branch identically whether they
// hold a Result from ProcessWindow or a WindowResult from the batch
// paths.
func (r *Result) Health() *Health { return r.health }

// Attempts returns the number of processing attempts the window
// consumed (0 when it never took the retry-aware batch path), mirroring
// WindowResult.Attempts.
func (r *Result) Attempts() int {
	if r.health == nil {
		return 0
	}
	return r.health.Attempts
}

// System is a deployed RF-Prism instance: geometry, calibration state
// and solver configuration.
type System struct {
	antennas []AntennaGeometry
	bounds   Bounds
	cfg      Config

	antennaCal core.AntennaCal
	tagCals    map[string]TagCal

	// fastpath is the per-tag stationary cache (nil when the fast path
	// is disabled); solveStats counts its outcomes either way.
	fastpath   *solveCache
	solveStats solveStats
}

// Config returns the System's effective configuration.
func (s *System) Config() Config { return s.cfg }

// NewSystem builds a System for the given deployment. 2D needs ≥3
// antennas; 3D (WithMode3D) needs ≥4.
func NewSystem(antennas []AntennaGeometry, bounds Bounds, opts ...Option) (*System, error) {
	s := &System{
		antennas: append([]AntennaGeometry(nil), antennas...),
		bounds:   bounds,
		tagCals:  make(map[string]TagCal),
	}
	for _, o := range opts {
		o(s)
	}
	need := 3
	if s.cfg.Pipeline.Mode3D {
		need = 4
	}
	if len(s.antennas) < need {
		return nil, fmt.Errorf("rfprism: %d antennas configured, need %d", len(s.antennas), need)
	}
	if s.cfg.Runtime.FastPath.enabled() {
		s.fastpath = newSolveCache(s.cfg.Runtime.FastPath)
	}
	return s, nil
}

// need returns the minimum usable antenna count the active solver
// model accepts (3 for 2D, 4 for 3D).
func (s *System) need() int { return core.MinAntennas(s.cfg.Pipeline.Mode3D) }

// windowObs is the front-end output of one window: fitted
// observations for the surviving antennas in deployment order, their
// detector reports and spectra, plus the health ledger covering every
// deployed antenna.
type windowObs struct {
	obs     []core.Observation
	reports []fit.LinearityReport
	spectra []preprocess.Spectrum
	health  *Health
}

// dropObserved removes the observation at index i (an antenna the
// error detector rejected), recording the reason in the health ledger.
func (wo *windowObs) dropObserved(i int, reason DropReason) {
	if slot := wo.health.entry(wo.obs[i].ID); slot != nil {
		slot.Used = false
		slot.Reason = reason
	}
	wo.obs = append(wo.obs[:i], wo.obs[i+1:]...)
	wo.reports = append(wo.reports[:i], wo.reports[i+1:]...)
	wo.spectra = append(wo.spectra[:i], wo.spectra[i+1:]...)
}

// observe preprocesses a window and fits each antenna's line. It
// degrades instead of aborting: silent antennas and failed fits are
// recorded in the health ledger and dropped, and only when fewer than
// need() antennas survive does it fail — with a WindowError that
// wraps the typed causes (ErrAntennaSilent, ErrAntennaFit) under
// ErrWindowRejected and carries the health snapshot.
//
// tb, when non-nil, receives spectra/fit/select/observe spans; every
// recording site is gated on the nil check so untraced runs pay only
// the branch.
func (s *System) observe(tb *traceBuf, readings []sim.Reading) (*windowObs, error) {
	var obsStart time.Time
	if tb != nil {
		obsStart = time.Now()
	}
	h := newHealth(s.antennas)
	wo := &windowObs{health: h}
	var t0 time.Time
	if tb != nil {
		t0 = time.Now()
	}
	spectra, err := preprocess.BuildSpectra(readings, preprocess.Options{})
	if tb != nil {
		tb.add(Span{Stage: StageSpectra, Antenna: -1, Start: t0, Duration: time.Since(t0), Err: errString(err)})
	}
	if err != nil {
		h.finalize()
		if tb != nil {
			tb.add(Span{Stage: StageObserve, Antenna: -1, Start: obsStart, Duration: time.Since(obsStart), Err: err.Error()})
		}
		return nil, &WindowError{Health: h, err: fmt.Errorf(
			"%w: %w: preprocess: %v", ErrWindowRejected, ErrAntennaSilent, err)}
	}
	byID := make(map[int]preprocess.Spectrum, len(spectra))
	for _, sp := range spectra {
		byID[sp.Antenna] = sp
	}
	var silent, failed int
	for _, ant := range s.antennas {
		slot := h.entry(ant.ID)
		sp, ok := byID[ant.ID]
		if !ok {
			silent++ // slot stays DropSilent
			continue
		}
		slot.ChannelsTotal = len(sp.Samples)
		freqs, phases := sp.Freqs(), sp.Phases()
		if tb != nil {
			t0 = time.Now()
		}
		var line fit.Line
		switch {
		case s.cfg.Pipeline.NoChannelSelection:
			line, err = fit.FitLine(freqs, phases)
		case s.cfg.Pipeline.ModelSuppression:
			line, err = fit.FitLineMultipath(freqs, phases, s.cfg.Pipeline.Multipath)
		default:
			line, err = fit.FitLineRobust(freqs, phases, sp.RSSIs(), s.cfg.Pipeline.Robust)
		}
		if tb != nil {
			fitSpan := Span{Stage: StageFit, Antenna: ant.ID, Start: t0, Duration: time.Since(t0),
				Err: errString(err), ChannelsTotal: len(sp.Samples)}
			if err != nil {
				fitSpan.Drop = DropFit.String()
			}
			tb.add(fitSpan)
		}
		if err != nil {
			slot.Reason = DropFit
			failed++
			continue
		}
		if tb != nil {
			t0 = time.Now()
		}
		rep := fit.CheckLinearity(line, len(freqs), s.cfg.Pipeline.Detector)
		slot.Used = true
		slot.Reason = DropNone
		slot.ChannelsKept = line.NumUsed
		slot.ResidStd = rep.ResidStd
		slot.KeptFraction = rep.KeptFraction
		usedF, usedP := usedSamples(line, freqs, phases)
		if tb != nil {
			tb.add(Span{Stage: StageSelect, Antenna: ant.ID, Start: t0, Duration: time.Since(t0),
				ChannelsKept: line.NumUsed, ChannelsTotal: len(sp.Samples)})
		}
		wo.obs = append(wo.obs, core.Observation{
			ID:     ant.ID,
			Pos:    ant.Pos,
			Frame:  geom.NewFrame(ant.Boresight),
			Line:   line,
			Freqs:  usedF,
			Phases: usedP,
		})
		wo.reports = append(wo.reports, rep)
		wo.spectra = append(wo.spectra, sp)
	}
	h.finalize()
	if len(wo.obs) < s.need() {
		cause := ErrAntennaSilent
		switch {
		case silent > 0 && failed > 0:
			cause = errors.Join(ErrAntennaSilent, ErrAntennaFit)
		case failed > 0:
			cause = ErrAntennaFit
		}
		werr := &WindowError{Health: h, err: fmt.Errorf(
			"%w: only %d of %d antennas usable, need %d: %w",
			ErrWindowRejected, len(wo.obs), len(s.antennas), s.need(), cause)}
		if tb != nil {
			tb.add(Span{Stage: StageObserve, Antenna: -1, Start: obsStart, Duration: time.Since(obsStart), Err: werr.Error()})
		}
		return nil, werr
	}
	if tb != nil {
		tb.add(Span{Stage: StageObserve, Antenna: -1, Start: obsStart, Duration: time.Since(obsStart)})
	}
	return wo, nil
}

func usedSamples(line fit.Line, freqs, phases []float64) ([]float64, []float64) {
	f := make([]float64, 0, len(freqs))
	p := make([]float64, 0, len(phases))
	for i := range freqs {
		if i < len(line.Used) && line.Used[i] {
			f = append(f, freqs[i])
			p = append(p, phases[i])
		}
	}
	return f, p
}

// ProcessWindow runs the full RF-Prism pipeline on the raw readings
// of one hop round: preprocessing, per-antenna robust line fitting,
// the error detector, antenna-offset correction and the phase
// disentangler. It returns ErrWindowRejected (wrapped in a
// WindowError carrying the Health report) when the window fails the
// error detector or too few antennas survive.
//
// Deployments with spare antennas degrade instead of failing: as long
// as 3 (2D) / 4 (3D) of the deployed antennas yield clean fits, the
// solver runs on the surviving subset and the Result's Health report
// says which antennas were dropped and why.
//
// ProcessWindow only reads System state, so it is safe to call
// concurrently (ProcessWindows does) as long as the calibration
// methods are not running at the same time.
func (s *System) ProcessWindow(readings []sim.Reading) (*Result, error) {
	return s.processWindow("", 1, readings)
}

// processWindow is ProcessWindow with the window's caller-side tag and
// the processing attempt number attached (the batch paths supply both);
// it owns the trace lifecycle: one traceBuf per attempt, spans attached
// to whichever side of the outcome carries them, and one
// Tracer.RecordWindow call per attempt.
func (s *System) processWindow(tag string, attempt int, readings []sim.Reading) (*Result, error) {
	var tb *traceBuf
	if s.cfg.Runtime.Tracer != nil {
		tb = newTraceBuf(tag, attempt)
	}
	res, err := s.processWindowStages(tb, tag, readings)
	if tb != nil {
		var h *Health
		if res != nil {
			h = res.health
		} else if eh, ok := HealthFromError(err); ok {
			h = eh
		}
		tb.endWindow(err, h)
		if res != nil {
			res.Spans = tb.spans
		}
		var we *WindowError
		if errors.As(err, &we) {
			we.Spans = tb.spans
		}
		s.cfg.Runtime.Tracer.RecordWindow(tag, tb.spans)
	}
	return res, err
}

// processWindowStages is the pipeline body: observe → detector → solve.
// tag keys the solver fast path (the stationary-tag cache is per-tag
// state); an empty tag always solves cold.
func (s *System) processWindowStages(tb *traceBuf, tag string, readings []sim.Reading) (*Result, error) {
	wo, err := s.observe(tb, readings)
	if err != nil {
		return nil, err
	}
	h := wo.health
	if !s.cfg.Pipeline.NoErrorDetector {
		var t0 time.Time
		if tb != nil {
			t0 = time.Now()
		}
		clean := 0
		for _, rep := range wo.reports {
			if rep.Linear {
				clean++
			}
		}
		if clean < s.need() {
			// Too few static-looking antennas: mobility (or pervasive
			// corruption), the window as a whole is untrustworthy.
			for i, rep := range wo.reports {
				if !rep.Linear {
					werr := &WindowError{Health: h, err: fmt.Errorf(
						"%w: antenna %d resid %.3f rad, kept %.0f%%",
						ErrWindowRejected, wo.obs[i].ID, rep.ResidStd, rep.KeptFraction*100)}
					if tb != nil {
						tb.add(Span{Stage: StageDetector, Antenna: -1, Start: t0, Duration: time.Since(t0), Err: werr.Error()})
					}
					return nil, werr
				}
			}
		}
		// Enough clean antennas remain. Under the likelihood layer the
		// non-linear antennas stay in the solve at a fractional weight
		// derived from their fit residuals; otherwise they are shed
		// outright (per-antenna multipath or local disturbance) and the
		// solver runs on the subset.
		shed := 0
		if s.cfg.Pipeline.Confidence {
			shed = softWeightObserved(wo)
		} else {
			for i := len(wo.reports) - 1; i >= 0; i-- {
				if !wo.reports[i].Linear {
					wo.dropObserved(i, DropDetector)
					shed++
				}
			}
		}
		h.finalize()
		if tb != nil {
			tb.add(Span{Stage: StageDetector, Antenna: -1, Start: t0, Duration: time.Since(t0), Shed: shed})
		}
	}
	obs := s.antennaCal.Apply(wo.obs)

	var t0 time.Time
	if tb != nil {
		t0 = time.Now()
	}
	est, err := s.solveEstimate(tag, obs)
	if tb != nil {
		tb.add(Span{Stage: StageSolve, Antenna: -1, Start: t0, Duration: time.Since(t0), Err: errString(err)})
	}
	if err != nil {
		return nil, &WindowError{Health: h, err: fmt.Errorf("rfprism: solve: %w", err)}
	}
	var conf *Confidence
	if s.cfg.Pipeline.Confidence {
		if tb != nil {
			t0 = time.Now()
		}
		c, cerr := core.EvaluateConfidence(obs, est, s.cfg.Pipeline.Mode3D, s.bounds, s.cfg.Pipeline.Solver)
		if cerr == nil {
			conf = c
		}
		if tb != nil {
			tb.add(Span{Stage: StageConfidence, Antenna: -1, Start: t0, Duration: time.Since(t0), Err: errString(cerr)})
		}
	}
	lines := make([]fit.Line, len(obs))
	for i, o := range obs {
		lines[i] = o.Line
	}
	return &Result{Estimate: est, Lines: lines, Linearity: wo.reports, Spectra: wo.spectra, Confidence: conf, health: h}, nil
}

// Soft-weight bounds: a detector-flagged antenna never outweighs half
// a clean one, and never vanishes entirely (it still anchors the
// geometry it uniquely observes).
const (
	minSoftWeight = 0.02
	maxSoftWeight = 0.5
)

// softWeightObserved implements the likelihood layer's replacement for
// detector shedding: every surviving antenna keeps contributing, with
// the non-linear ones down-weighted by how far their fit residual
// sits above the clean antennas' median — the per-antenna noise model
// σ_i from the linearity reports turned into relative weights
// (σ_ref/σ_i)², scaled by the surviving-channel fraction. Returns how
// many antennas were down-weighted (the detector span's Shed count).
func softWeightObserved(wo *windowObs) (down int) {
	ref := 0.0
	n := 0
	resids := make([]float64, 0, len(wo.reports))
	for _, rep := range wo.reports {
		if rep.Linear {
			resids = append(resids, rep.ResidStd)
			n++
		}
	}
	if n > 0 {
		ref = mathx.Median(resids)
	}
	if ref < 0.04 {
		ref = 0.04 // the solver's default σ_B floor
	}
	for i := range wo.obs {
		rep := wo.reports[i]
		slot := wo.health.entry(wo.obs[i].ID)
		if rep.Linear {
			wo.obs[i].Weight = 1
			if slot != nil {
				slot.Weight = 1
			}
			continue
		}
		w := maxSoftWeight
		if rep.ResidStd > ref {
			r := ref / rep.ResidStd
			w = r * r
		}
		if rep.KeptFraction > 0 && rep.KeptFraction < 1 {
			w *= rep.KeptFraction
		}
		if w < minSoftWeight {
			w = minSoftWeight
		}
		if w > maxSoftWeight {
			w = maxSoftWeight
		}
		wo.obs[i].Weight = w
		if slot != nil {
			slot.Weight = w
			slot.Reason = DropDetector // records *why* the weight is partial
		}
		down++
	}
	return down
}

// CalibrateAntennas performs the pre-deployment antenna correction of
// §IV-C from a window collected with a bare tag at a known position
// and known polarization angle. Subsequent ProcessWindow calls apply
// the correction automatically.
func (s *System) CalibrateAntennas(readings []sim.Reading, truthPos geom.Vec3, truthAlpha float64) error {
	wo, err := s.calibrationObserve(readings)
	if err != nil {
		return err
	}
	cal, err := core.CalibrateAntennas(wo.obs, truthPos, truthAlpha)
	if err != nil {
		return err
	}
	s.antennaCal = cal
	return nil
}

// calibrationObserve is observe with the degraded path closed off:
// a calibration window that misses any antenna would silently leave
// that antenna uncorrected, so calibration demands the full set.
func (s *System) calibrationObserve(readings []sim.Reading) (*windowObs, error) {
	wo, err := s.observe(nil, readings)
	if err != nil {
		return nil, err
	}
	if wo.health.Degraded {
		return nil, &WindowError{Health: wo.health, err: fmt.Errorf(
			"%w: calibration requires all %d antennas, dropped %v",
			ErrAntennaSilent, len(s.antennas), wo.health.DroppedAntennas())}
	}
	return wo, nil
}

// TagCal is the per-tag device calibration of §V-B: the reader-tag
// pair's own phase line θ_device0, measured once with the bare tag at
// a known position/orientation and subtracted from every subsequent
// material measurement.
type TagCal struct {
	EPC string
	// Kd and Bd0 are the fitted per-tag line (slope rad/Hz,
	// band-center intercept rad).
	Kd, Bd0 float64
	// PerChannel is θ_device0 per channel (wrapped), NaN where the
	// calibration window had no usable sample.
	PerChannel []float64
}

// CalibrateTag measures and stores a tag's device calibration from a
// bare-tag window at a known position and polarization angle. It must
// run after CalibrateAntennas.
func (s *System) CalibrateTag(epc string, readings []sim.Reading, truthPos geom.Vec3, truthAlpha float64) error {
	wo, err := s.calibrationObserve(readings)
	if err != nil {
		return err
	}
	obs := s.antennaCal.Apply(wo.obs)
	dev := s.devicePhases(obs, truthPos, truthAlpha)
	// Fit the per-tag line on the unwrapped usable channels. The
	// channel table is shared and read-only; it is indexed, never
	// mutated, here.
	var freqs, phases []float64
	chs := rf.ChannelTable()
	for ch, v := range dev {
		if !math.IsNaN(v) {
			freqs = append(freqs, chs[ch])
			phases = append(phases, v)
		}
	}
	if len(freqs) < 10 {
		return fmt.Errorf("rfprism: tag calibration has only %d usable channels", len(freqs))
	}
	phases = mathx.Unwrap(phases)
	line, err := fit.FitLineRobust(freqs, phases, nil, s.cfg.Pipeline.Robust)
	if err != nil {
		return fmt.Errorf("rfprism: tag calibration fit: %w", err)
	}
	s.tagCals[epc] = TagCal{EPC: epc, Kd: line.K, Bd0: mathx.Wrap2Pi(line.B0), PerChannel: dev}
	return nil
}

// AntennaCalibration returns the current antenna correction (§IV-C);
// baselines consuming the same windows reuse it.
func (s *System) AntennaCalibration() core.AntennaCal { return s.antennaCal }

// TagCalibration returns the stored calibration for a tag.
func (s *System) TagCalibration(epc string) (TagCal, bool) {
	c, ok := s.tagCals[epc]
	return c, ok
}

// devicePhases computes the per-channel device phase (wrapped): the
// observed phase minus the propagation and orientation components at
// the given tag state, circularly averaged across antennas.
func (s *System) devicePhases(obs []core.Observation, pos geom.Vec3, alpha float64) []float64 {
	w := rf.TagPolarization2D(alpha)
	sums := make([]complex128, rf.NumChannels)
	for _, o := range obs {
		d := o.Pos.Dist(pos)
		orient := rf.OrientationPhase(o.Frame, w)
		for j, f := range o.Freqs {
			ch := int(math.Round((f - rf.FirstChannelHz) / rf.ChannelSpacingHz))
			if ch < 0 || ch >= rf.NumChannels {
				continue
			}
			dev := o.Phases[j] - rf.PropagationPhase(d, f) - orient
			sums[ch] += complex(math.Cos(dev), math.Sin(dev))
		}
	}
	out := make([]float64, rf.NumChannels)
	for ch := range out {
		if sums[ch] == 0 {
			out[ch] = math.NaN()
			continue
		}
		out[ch] = mathx.Wrap2Pi(math.Atan2(imag(sums[ch]), real(sums[ch])))
	}
	return out
}

// FeatureDim is the dimensionality of the material feature vector
// F = (k_t, b_t, θmaterial(f₁)...θmaterial(f₅₀)) — Eq. (9).
const FeatureDim = 2 + rf.NumChannels

// MaterialFeatures extracts the 52-dimensional material feature
// vector of Eq. (9) from a processed window, compensating the per-tag
// device diversity with the stored calibration. The per-channel terms
// are the frequency-selective residuals of θmaterial(f) after
// removing the window's own fitted line: the paper uses the raw
// θdevice(f) − θdevice0(f) differences, but those carry the window's
// position-estimate error as a common-mode offset (38 rad/m at f₀);
// the line-residual form keeps exactly the frequency-selective
// information Eq. (9) adds while being immune to that error (see
// DESIGN.md §2).
func (s *System) MaterialFeatures(epc string, res *Result) ([]float64, error) {
	cal, ok := s.tagCals[epc]
	if !ok {
		return nil, fmt.Errorf("rfprism: tag %q has no calibration", epc)
	}
	obs, err := s.resultObservations(res)
	if err != nil {
		return nil, err
	}
	est := res.Estimate
	dev := s.devicePhases(obs, est.Pos, est.Alpha)

	ktFeat := est.Kt - cal.Kd
	btFeat := mathx.Wrap2Pi(est.Bt0 - cal.Bd0)
	features := make([]float64, FeatureDim)
	features[0] = ktFeat
	features[1] = btFeat
	chs := rf.ChannelTable()
	for ch := 0; ch < rf.NumChannels; ch++ {
		if math.IsNaN(dev[ch]) || math.IsNaN(cal.PerChannel[ch]) {
			features[2+ch] = 0
			continue
		}
		mat := mathx.WrapPi(dev[ch] - cal.PerChannel[ch] - ktFeat*(chs[ch]-rf.CenterFrequencyHz) - btFeat)
		features[2+ch] = mat
	}
	return features, nil
}

// resultObservations rebuilds calibrated observations from a stored
// result's spectra (used by feature extraction, which needs the
// per-channel phases). Degraded results rebuild only the antennas
// that contributed — Lines/Spectra are aligned with the Health
// report's used set, not the full deployment.
func (s *System) resultObservations(res *Result) ([]core.Observation, error) {
	contributed := s.antennas
	if res.health != nil {
		contributed = make([]AntennaGeometry, 0, len(s.antennas))
		for _, ant := range s.antennas {
			if slot := res.health.entry(ant.ID); slot == nil || slot.Used {
				contributed = append(contributed, ant)
			}
		}
	}
	obs := make([]core.Observation, 0, len(contributed))
	for i, ant := range contributed {
		if i >= len(res.Spectra) || i >= len(res.Lines) {
			return nil, fmt.Errorf("rfprism: result missing spectra for antenna %d", ant.ID)
		}
		sp := res.Spectra[i]
		freqs, phases := sp.Freqs(), sp.Phases()
		usedF, usedP := usedSamples(res.Lines[i], freqs, phases)
		obs = append(obs, core.Observation{
			ID:     ant.ID,
			Pos:    ant.Pos,
			Frame:  geom.NewFrame(ant.Boresight),
			Line:   res.Lines[i],
			Freqs:  usedF,
			Phases: usedP,
		})
	}
	// Lines in a Result are already calibrated, but the spectra are
	// raw: re-apply the per-channel part of the antenna correction.
	calObs := make([]core.Observation, len(obs))
	copy(calObs, obs)
	for i := range calObs {
		dk := s.antennaCal.DK[calObs[i].ID]
		db := s.antennaCal.DB[calObs[i].ID]
		if dk == 0 && db == 0 {
			continue
		}
		ph := make([]float64, len(calObs[i].Phases))
		for j, p := range calObs[i].Phases {
			ph[j] = p - dk*(calObs[i].Freqs[j]-rf.CenterFrequencyHz) - db
		}
		calObs[i].Phases = ph
	}
	return calObs, nil
}
