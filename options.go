package rfprism

import (
	"time"

	"rfprism/internal/core"
	"rfprism/internal/fit"
)

// PipelineConfig groups the knobs that change *what* the pipeline
// computes: the solver model, the per-antenna fit, channel selection
// and the error detector. The zero value is the paper's default 2D
// pipeline.
type PipelineConfig struct {
	// Mode3D switches to the four-antenna 3D solver; the bounds must
	// then include a Z range.
	Mode3D bool
	// Solver overrides the disentangler options (grid resolution,
	// multistart fan-out, solver parallelism).
	Solver core.Options
	// Detector overrides the §V-C error-detector thresholds.
	Detector fit.DetectorOptions
	// Robust overrides the outlier-trimming fit used by the default
	// channel selection and the calibration paths.
	Robust fit.RobustOptions
	// Multipath overrides the model-based echo-removal fit (only used
	// when ModelSuppression is set).
	Multipath fit.MultipathOptions
	// ModelSuppression replaces the default §V-D channel selection
	// (RSSI fade masking + absolute residual trimming) with the
	// model-based echo-removal fit — effective against *static*
	// long-delay multipath, see fit.FitLineMultipath.
	ModelSuppression bool
	// NoChannelSelection disables the multipath suppression (§V-D),
	// fitting all channels — the "Multipath" bar of Fig. 12.
	NoChannelSelection bool
	// NoErrorDetector disables the mobility error detector (§V-C).
	NoErrorDetector bool
	// Confidence turns on the likelihood layer: the detector's hard
	// antenna drops above the solver minimum become soft down-weights
	// (Observation.Weight) derived from the fit residuals, and every
	// successful Result carries a Confidence block (covariance,
	// per-axis CIs, normalized log-likelihood, 2π-ambiguity margin)
	// from a Hessian evaluation at the optimum. Off by default; the
	// default pipeline's outputs are bit-identical with it off.
	Confidence bool
}

// RuntimeConfig groups the knobs that change *how* the pipeline runs:
// concurrency, retries and instrumentation. The zero value is serial,
// retry-free and untraced.
type RuntimeConfig struct {
	// Parallelism bounds the worker count of ProcessWindows and
	// ProcessStream: 0 uses GOMAXPROCS, 1 forces serial processing.
	Parallelism int
	// RetryAttempts/RetryBackoff make the batch paths re-collect and
	// re-process windows failing with a transient fault, see
	// WithWindowRetry. Attempts ≤ 1 disables retrying.
	RetryAttempts int
	RetryBackoff  time.Duration
	// Tracer, when set, receives per-stage spans for every processed
	// window (see Tracer). A nil Tracer records nothing and costs
	// nothing.
	Tracer Tracer
	// ProcessHook runs inside the per-window panic fence just before
	// each solve; see WithProcessHook.
	ProcessHook func(Window)
	// FastPath configures the solver fast path (the stationary-tag
	// cache) for tagged windows; see FastPathConfig and WithSolveCache.
	// The zero value disables it.
	FastPath FastPathConfig
}

// Config is the full System configuration: what to compute (Pipeline)
// and how to run it (Runtime). Use WithConfig to apply one wholesale,
// or the individual With* options — each is a documented thin wrapper
// over one Config field, and later options override earlier ones.
type Config struct {
	Pipeline PipelineConfig
	Runtime  RuntimeConfig
}

// Option configures a System.
type Option func(*System)

// WithConfig replaces the System's entire configuration. Combine with
// individual With* options freely; application order decides.
func WithConfig(c Config) Option {
	return func(s *System) { s.cfg = c }
}

// WithMode3D switches the solver to the four-antenna 3D model; the
// bounds must then include a Z range.
func WithMode3D() Option {
	return func(s *System) { s.cfg.Pipeline.Mode3D = true }
}

// WithSolverOptions overrides the disentangler options.
func WithSolverOptions(o core.Options) Option {
	return func(s *System) { s.cfg.Pipeline.Solver = o }
}

// WithDetectorOptions overrides the error-detector thresholds.
func WithDetectorOptions(o fit.DetectorOptions) Option {
	return func(s *System) { s.cfg.Pipeline.Detector = o }
}

// WithRobustOptions overrides the outlier-trimming fit used by the
// calibration paths.
func WithRobustOptions(o fit.RobustOptions) Option {
	return func(s *System) { s.cfg.Pipeline.Robust = o }
}

// WithMultipathOptions overrides the model-based multipath
// suppression fit (implies WithModelSuppression).
func WithMultipathOptions(o fit.MultipathOptions) Option {
	return func(s *System) {
		s.cfg.Pipeline.Multipath = o
		s.cfg.Pipeline.ModelSuppression = true
	}
}

// WithModelSuppression replaces the default §V-D channel selection
// with the model-based echo-removal fit, see
// PipelineConfig.ModelSuppression.
func WithModelSuppression() Option {
	return func(s *System) { s.cfg.Pipeline.ModelSuppression = true }
}

// WithoutChannelSelection disables the multipath suppression (§V-D),
// fitting all channels — the "Multipath" bar of Fig. 12.
func WithoutChannelSelection() Option {
	return func(s *System) { s.cfg.Pipeline.NoChannelSelection = true }
}

// WithoutErrorDetector disables the mobility error detector (§V-C).
func WithoutErrorDetector() Option {
	return func(s *System) { s.cfg.Pipeline.NoErrorDetector = true }
}

// WithConfidence turns on the likelihood layer: noisy antennas are
// softly down-weighted instead of hard-dropped (as long as enough
// clean antennas remain to anchor the solve), and every successful
// Result carries a Confidence block — parameter covariance, per-axis
// 90% confidence intervals, a normalized log-likelihood and the
// explicit 2π-ambiguity margin. See PipelineConfig.Confidence.
func WithConfidence() Option {
	return func(s *System) { s.cfg.Pipeline.Confidence = true }
}

// WithParallelism bounds the worker count of ProcessWindows and
// ProcessStream: 0 (the default) uses GOMAXPROCS, 1 forces serial
// processing.
func WithParallelism(n int) Option {
	return func(s *System) { s.cfg.Runtime.Parallelism = n }
}

// WithWindowRetry makes ProcessWindows and ProcessStream re-collect
// and re-process windows that fail with a transient fault
// (ErrWindowRejected and its causes) up to attempts times in total,
// sleeping backoff, 2×backoff, 4×backoff, … (capped at 8×backoff)
// between attempts. Retries need fresh data to have any point —
// re-processing identical readings is deterministic — so only windows
// with a Collect source are retried. The zero configuration (attempts
// ≤ 1) disables retrying.
func WithWindowRetry(attempts int, backoff time.Duration) Option {
	return func(s *System) {
		s.cfg.Runtime.RetryAttempts = attempts
		s.cfg.Runtime.RetryBackoff = backoff
	}
}

// WithTracer installs a per-stage span tracer: every processed window
// (including failed and retried attempts) reports one span per executed
// pipeline stage, see Tracer and Span. Without a tracer the pipeline
// records nothing and pays no timing overhead.
func WithTracer(t Tracer) Option {
	return func(s *System) { s.cfg.Runtime.Tracer = t }
}

// WithWarmStart does nothing: warm start was removed, and every solve
// that the stationary-tag cache does not serve runs the cold multistart.
//
// Deprecated: the benchmark harness still passes this option; use
// WithSolveCache for the fast path.
func WithWarmStart() Option {
	return func(*System) {}
}

// WithSolveCache enables the stationary-tag cache over the last n tags:
// a tagged window whose per-antenna fitted lines match the tag's
// previous window within tight slope/intercept tolerances is served the
// previous estimate — after re-verifying it against the current
// window's joint objective — without running the solver at all. See
// FastPathConfig for the tolerance knobs.
func WithSolveCache(n int) Option {
	return func(s *System) { s.cfg.Runtime.FastPath.CacheSize = n }
}

// WithProcessHook installs fn to run inside the per-window panic fence
// just before each solve, receiving the window about to be processed.
// It exists for chaos and crash testing — a hook that panics simulates
// a solver panic exactly where a real one would fire — and must be
// safe for concurrent use (workers call it in parallel).
func WithProcessHook(fn func(Window)) Option {
	return func(s *System) { s.cfg.Runtime.ProcessHook = fn }
}
