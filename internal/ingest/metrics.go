package ingest

import (
	"io"
	"sync"
	"time"

	"rfprism"
	"rfprism/internal/obs"
)

// latencyBounds are the histogram bucket upper bounds (seconds) for
// end-to-end window latency (enqueue → result). The spread covers a
// sub-millisecond cache hit up to a multi-second saturated queue.
var latencyBounds = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

// stageBounds are the bucket upper bounds (seconds) for per-stage
// pipeline latency. Stages are much faster than whole windows — a fit
// is tens of microseconds, a solve tens of milliseconds — so the grid
// starts three decades lower than latencyBounds.
var stageBounds = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}

// confRadiusBounds are the bucket upper bounds (meters) for the
// per-result 90% positional confidence radius: a clean four-antenna
// window lands in single centimeters, a degraded down-weighted one
// stretches toward the decimeter buckets.
var confRadiusBounds = []float64{0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}

// confMarginBounds are the bucket upper bounds (dimensionless
// log-likelihood units) for the 2π-ambiguity margin; near-zero means
// a genuinely ambiguous window.
var confMarginBounds = []float64{0.5, 1, 2, 4, 8, 16, 32, 64, 128}

// Metrics is the daemon's instrument set, registered on an obs.Registry
// and exposed as Prometheus text on /metrics. All counters are
// monotonically increasing and safe for concurrent use; gauges (queue
// depth, open sessions, journal positions) are sampled from the
// caller-provided Gauges snapshot at render time.
//
// Metrics also implements rfprism.Tracer: installed on the System with
// rfprism.WithTracer, it folds every window's stage spans into the
// rfprismd_stage_latency_seconds histograms, so /metrics answers "where
// does window time go" without any span export.
type Metrics struct {
	reg   *obs.Registry
	start time.Time

	ReportsAccepted      *obs.Counter
	ReportsRejected      *obs.Counter
	ReportsBackpressured *obs.Counter
	ReportsDeduped       *obs.Counter // skipped by the stream high-water mark

	windowsClosed    [numCloseReasons]*obs.Counter
	WindowsDiscarded *obs.Counter
	WindowsShed      *obs.Counter

	ResultsOK       *obs.Counter
	ResultsErr      *obs.Counter
	WindowsDegraded *obs.Counter
	SinkErrors      *obs.Counter

	SolverPanics       *obs.Counter
	WindowsQuarantined *obs.Counter
	BreakerTrips       *obs.Counter
	ReportsJournalOnly *obs.Counter
	SessionsAborted    *obs.Counter // open sessions retired un-emitted into replay custody
	SessionsHandedOff  *obs.Counter // open sessions extracted for shard handoff
	JournalErrors      *obs.Counter
	WindowsSuppressed  *obs.Counter // replay: already in the emission ledger
	WindowsRecovered   *obs.Counter // replay: re-enqueued for solving

	latency *obs.Histogram
	stages  map[rfprism.Stage]*obs.Histogram

	// Confidence instruments (fed only when the System runs the
	// likelihood layer, see rfprism.WithConfidence / rfprismd
	// -confidence; the series render empty otherwise).
	confRadius *obs.Histogram
	confMargin *obs.Histogram

	gUptime           *obs.Gauge
	gQueueDepth       *obs.Gauge
	gQueueCap         *obs.Gauge
	gOpenSessions     *obs.Gauge
	gBufferedReadings *obs.Gauge
	gDraining         *obs.Gauge
	gBreakerTripped   *obs.Gauge

	// Journal gauges are registered lazily on the first render that sees
	// an enabled journal, so a journal-less daemon's exposition carries
	// no dead series.
	journalOnce      sync.Once
	gJournalNext     *obs.Gauge
	gJournalSynced   *obs.Gauge
	gJournalSegments *obs.Gauge
}

// NewMetrics starts a metric set; start anchors the uptime gauge.
func NewMetrics(start time.Time) *Metrics {
	r := obs.NewRegistry()
	m := &Metrics{reg: r, start: start}

	m.ReportsAccepted = r.NewCounter("rfprismd_reports_total", "Ingested reports by outcome.", obs.L("outcome", "accepted"))
	m.ReportsRejected = r.NewCounter("rfprismd_reports_total", "", obs.L("outcome", "rejected"))
	m.ReportsBackpressured = r.NewCounter("rfprismd_reports_total", "", obs.L("outcome", "backpressured"))
	m.ReportsDeduped = r.NewCounter("rfprismd_reports_total", "", obs.L("outcome", "deduplicated"))

	for cr := CloseReason(0); int(cr) < numCloseReasons; cr++ {
		help := ""
		if cr == 0 {
			help = "Windows leaving the sessionizer by close reason."
		}
		m.windowsClosed[cr] = r.NewCounter("rfprismd_windows_closed_total", help, obs.L("reason", cr.String()))
	}
	m.WindowsDiscarded = r.NewCounter("rfprismd_windows_discarded_total", "Windows dropped below the antenna floor.")
	m.WindowsShed = r.NewCounter("rfprismd_windows_shed_total", "Expired windows shed against a full queue.")

	m.ResultsOK = r.NewCounter("rfprismd_results_total", "Solved windows by outcome.", obs.L("outcome", "ok"))
	m.ResultsErr = r.NewCounter("rfprismd_results_total", "", obs.L("outcome", "error"))
	m.WindowsDegraded = r.NewCounter("rfprismd_windows_degraded_total", "Windows solved on an antenna subset.")
	m.SinkErrors = r.NewCounter("rfprismd_sink_errors_total", "Result deliveries a sink refused.")

	m.SolverPanics = r.NewCounter("rfprismd_solver_panics_total", "Windows whose solve panicked.")
	m.WindowsQuarantined = r.NewCounter("rfprismd_windows_quarantined_total", "Panicking windows captured for offline reproduction.")
	m.BreakerTrips = r.NewCounter("rfprismd_breaker_trips_total", "Panic circuit breaker trips.")
	m.ReportsJournalOnly = r.NewCounter("rfprismd_reports_journal_only_total", "Reports journaled but shed while the breaker was tripped.")
	m.SessionsAborted = r.NewCounter("rfprismd_sessions_aborted_total", "Open sessions retired un-emitted into replay custody.")
	m.SessionsHandedOff = r.NewCounter("rfprismd_sessions_handed_off_total", "Open sessions extracted for shard handoff.")
	m.JournalErrors = r.NewCounter("rfprismd_journal_errors_total", "Journal append/sync/retention failures.")
	m.WindowsSuppressed = r.NewCounter("rfprismd_replay_windows_total", "Replayed windows by outcome.", obs.L("outcome", "suppressed"))
	m.WindowsRecovered = r.NewCounter("rfprismd_replay_windows_total", "", obs.L("outcome", "recovered"))

	m.latency = r.NewHistogram("rfprismd_window_latency_seconds", "End-to-end window latency, enqueue to result.", latencyBounds)
	m.stages = make(map[rfprism.Stage]*obs.Histogram, len(rfprism.Stages()))
	for _, st := range rfprism.Stages() {
		help := ""
		if st == rfprism.StageSpectra {
			help = "Pipeline stage latency by stage (fed by the span tracer)."
		}
		m.stages[st] = r.NewHistogram("rfprismd_stage_latency_seconds", help, stageBounds, obs.L("stage", string(st)))
	}

	m.confRadius = r.NewHistogram("solver_confidence_ci90_radius_meters",
		"Per-result 90% positional confidence radius from the likelihood layer.", confRadiusBounds)
	m.confMargin = r.NewHistogram("solver_confidence_ambiguity_margin",
		"Log-likelihood margin of the solution over the best 2π-ambiguity alternative.", confMarginBounds)

	m.gUptime = r.NewGauge("rfprismd_uptime_seconds", "Seconds since daemon start.")
	m.gQueueDepth = r.NewGauge("rfprismd_queue_depth", "Closed windows waiting for a solver.")
	m.gQueueCap = r.NewGauge("rfprismd_queue_capacity", "Window queue capacity.")
	m.gOpenSessions = r.NewGauge("rfprismd_open_sessions", "Per-EPC sessions currently assembling.")
	m.gBufferedReadings = r.NewGauge("rfprismd_buffered_readings", "Reports buffered in open sessions.")
	m.gDraining = r.NewGauge("rfprismd_draining", "1 while shutdown is draining.")
	m.gBreakerTripped = r.NewGauge("rfprismd_breaker_tripped", "1 while the panic circuit breaker is tripped.")
	return m
}

// Registry exposes the underlying obs registry so callers can attach
// extra instruments (the debug endpoint adds Go runtime gauges).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// AttachSolverStats registers the solver fast-path counter, sampled
// from stats at render time (the counters live on the System so they
// also serve programmatic callers; see rfprism.System.SolveStats).
// Call at most once per Metrics.
func (m *Metrics) AttachSolverStats(stats func() rfprism.SolveStatsSnapshot) {
	m.reg.NewCounterFunc("solver_cache_hits_total",
		"Windows served from the stationary-tag cache without solving.",
		func() int64 { return stats().CacheHits })
}

// WindowClosed counts one window leaving the sessionizer.
func (m *Metrics) WindowClosed(r CloseReason) {
	if r >= 0 && int(r) < numCloseReasons {
		m.windowsClosed[r].Add(1)
	}
}

// WindowsClosed returns the count for one close reason.
func (m *Metrics) WindowsClosed(r CloseReason) int64 {
	if r < 0 || int(r) >= numCloseReasons {
		return 0
	}
	return m.windowsClosed[r].Load()
}

// ObserveLatency records one window's enqueue→result latency.
func (m *Metrics) ObserveLatency(d time.Duration) {
	m.latency.Observe(d.Seconds())
}

// ObserveConfidence records one confident result's positional CI
// radius (meters) and 2π-ambiguity margin.
func (m *Metrics) ObserveConfidence(radiusM, margin float64) {
	m.confRadius.Observe(radiusM)
	m.confMargin.Observe(margin)
}

// RecordWindow implements rfprism.Tracer: each span feeds its stage's
// latency histogram. Spans from unknown stages are dropped rather than
// minted into new series mid-flight.
func (m *Metrics) RecordWindow(_ string, spans []rfprism.Span) {
	for i := range spans {
		if h, ok := m.stages[spans[i].Stage]; ok {
			h.Observe(spans[i].Duration.Seconds())
		}
	}
}

// Gauges are the point-in-time values the daemon samples for a render.
type Gauges struct {
	QueueDepth       int
	QueueCap         int
	OpenSessions     int
	BufferedReadings int
	Draining         bool
	// BreakerTripped reports the panic circuit breaker state; while
	// tripped the daemon is in shed-and-journal-only mode and readiness
	// fails.
	BreakerTripped bool
	// Journal gauges (zero when the daemon runs without a journal).
	JournalEnabled   bool
	JournalNextSeq   uint64
	JournalSyncedSeq uint64
	JournalSegments  int
}

// WriteText stamps the sampled gauges into the registry and renders
// every family in the Prometheus text exposition format.
func (m *Metrics) WriteText(w io.Writer, now time.Time, g Gauges) {
	m.gUptime.Set(now.Sub(m.start).Seconds())
	m.gQueueDepth.SetInt(int64(g.QueueDepth))
	m.gQueueCap.SetInt(int64(g.QueueCap))
	m.gOpenSessions.SetInt(int64(g.OpenSessions))
	m.gBufferedReadings.SetInt(int64(g.BufferedReadings))
	m.gDraining.SetBool(g.Draining)
	m.gBreakerTripped.SetBool(g.BreakerTripped)
	if g.JournalEnabled {
		m.journalOnce.Do(func() {
			m.gJournalNext = m.reg.NewGauge("rfprismd_journal_next_seq", "Next journal sequence number.")
			m.gJournalSynced = m.reg.NewGauge("rfprismd_journal_synced_seq", "Highest fsynced journal sequence number.")
			m.gJournalSegments = m.reg.NewGauge("rfprismd_journal_segments", "Retained journal segment count.")
		})
		m.gJournalNext.SetInt(int64(g.JournalNextSeq))
		m.gJournalSynced.SetInt(int64(g.JournalSyncedSeq))
		m.gJournalSegments.SetInt(int64(g.JournalSegments))
	}
	m.reg.WriteText(w)
}
