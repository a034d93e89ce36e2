package router

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"rfprism/internal/obs"
)

// ingestLatencyBounds are the histogram bucket upper bounds (seconds)
// for one POST /v1/ingest request through the router: a per-EPC fan-out
// plus the slowest shard's admission. Sub-millisecond when every shard
// queue has room, multi-second when a shard is saturated.
var ingestLatencyBounds = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

// Metrics is the router tier's own instrument set. It deliberately
// does NOT mirror the shards' rfprismd_* families — those are
// aggregated from the live shard expositions at render time (see
// Router.writeMetrics) — it only measures what the router itself adds:
// routing volume, fan-out outcomes, per-shard availability.
type Metrics struct {
	reg   *obs.Registry
	start time.Time

	IngestOK        *obs.Counter
	IngestBadReport *obs.Counter
	IngestBackpress *obs.Counter
	IngestShardErr  *obs.Counter

	LinesRouted   *obs.Counter
	LinesRejected *obs.Counter
	// LinesOvershoot counts lines accepted by a healthy shard inside a
	// chunk another shard refused: a resume from the advertised line
	// re-delivers them (at-least-once across a propagated refusal; see
	// DESIGN.md §13 degradation matrix).
	LinesOvershoot *obs.Counter

	ScatterOK      *obs.Counter
	ScatterPartial *obs.Counter
	ScatterErr     *obs.Counter

	StreamOK      *obs.Counter
	StreamPartial *obs.Counter
	StreamErr     *obs.Counter
	// Streams counts live relayed SSE streams (rendered as the
	// router_streams gauge).
	Streams atomic.Int64

	HandoffReoffered  *obs.Counter
	HandoffSuppressed *obs.Counter

	// Self-healing transport counters (resilience.go).
	Retries         *obs.Counter // sub-request retry attempts
	HedgesFired     *obs.Counter // hedged reads launched
	HedgesWon       *obs.Counter // hedges that answered first
	BreakerFastFail *obs.Counter // sub-requests failed fast on an open breaker

	ingestLatency *obs.Histogram

	gShards *obs.Gauge
	gUptime *obs.Gauge

	// Per-shard series are minted once per shard ID ever seen, so a
	// shard that leaves and rejoins reuses its series instead of
	// tripping the registry's duplicate panic.
	mu       sync.Mutex
	perShard map[string]*ShardMetrics
}

// ShardMetrics are one shard's routing counters.
type ShardMetrics struct {
	Requests *obs.Counter
	Errors   *obs.Counter
	Up       *obs.Gauge
	// State is the breaker state machine's position: 0 healthy,
	// 1 suspect, 2 open, 3 half-open (resilience.go).
	State *obs.Gauge
}

// NewMetrics builds the router instrument set; start anchors uptime.
func NewMetrics(start time.Time) *Metrics {
	r := obs.NewRegistry()
	m := &Metrics{reg: r, start: start, perShard: make(map[string]*ShardMetrics)}

	m.IngestOK = r.NewCounter("router_ingest_requests_total", "Ingest requests by outcome.", obs.L("outcome", "ok"))
	m.IngestBadReport = r.NewCounter("router_ingest_requests_total", "", obs.L("outcome", "bad_report"))
	m.IngestBackpress = r.NewCounter("router_ingest_requests_total", "", obs.L("outcome", "backpressure"))
	m.IngestShardErr = r.NewCounter("router_ingest_requests_total", "", obs.L("outcome", "shard_error"))

	m.LinesRouted = r.NewCounter("router_lines_total", "Report lines by routing outcome.", obs.L("outcome", "routed"))
	m.LinesRejected = r.NewCounter("router_lines_total", "", obs.L("outcome", "rejected"))
	m.LinesOvershoot = r.NewCounter("router_lines_total", "", obs.L("outcome", "overshoot"))

	m.ScatterOK = r.NewCounter("router_scatter_requests_total", "Scatter-gather reads by outcome.", obs.L("outcome", "ok"))
	m.ScatterPartial = r.NewCounter("router_scatter_requests_total", "", obs.L("outcome", "partial"))
	m.ScatterErr = r.NewCounter("router_scatter_requests_total", "", obs.L("outcome", "error"))

	m.StreamOK = r.NewCounter("router_stream_requests_total", "SSE stream relays by outcome.", obs.L("outcome", "ok"))
	m.StreamPartial = r.NewCounter("router_stream_requests_total", "", obs.L("outcome", "partial"))
	m.StreamErr = r.NewCounter("router_stream_requests_total", "", obs.L("outcome", "error"))
	r.NewGaugeFunc("router_streams", "Live relayed SSE streams.",
		func() float64 { return float64(m.Streams.Load()) })

	m.HandoffReoffered = r.NewCounter("router_handoff_reports_total", "Journal-handoff reports by outcome.", obs.L("outcome", "reoffered"))
	m.HandoffSuppressed = r.NewCounter("router_handoff_reports_total", "", obs.L("outcome", "suppressed"))

	m.Retries = r.NewCounter("router_retries_total", "Shard sub-request retry attempts.")
	m.HedgesFired = r.NewCounter("router_hedged_reads_total", "Hedged scatter reads by outcome.", obs.L("outcome", "fired"))
	m.HedgesWon = r.NewCounter("router_hedged_reads_total", "", obs.L("outcome", "won"))
	m.BreakerFastFail = r.NewCounter("router_breaker_fastfail_total", "Sub-requests failed fast on an open breaker.")

	m.ingestLatency = r.NewHistogram("router_ingest_latency_seconds", "One ingest request through the fan-out.", ingestLatencyBounds)

	m.gShards = r.NewGauge("router_shards", "Shards currently in the ring.")
	m.gUptime = r.NewGauge("router_uptime_seconds", "Seconds since router start.")
	return m
}

// Registry exposes the underlying registry (the debug server attaches
// Go runtime gauges).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// Shard returns (minting on first use) the per-shard counter set.
func (m *Metrics) Shard(id string) *ShardMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	sm := m.perShard[id]
	if sm == nil {
		sm = &ShardMetrics{
			Requests: m.reg.NewCounter("router_shard_requests_total", "Sub-requests sent per shard.", obs.L("shard", id)),
			Errors:   m.reg.NewCounter("router_shard_errors_total", "Failed sub-requests per shard.", obs.L("shard", id)),
			Up:       m.reg.NewGauge("router_shard_up", "1 when the shard answered its last probe.", obs.L("shard", id)),
			State:    m.reg.NewGauge("router_shard_state", "Breaker state: 0 healthy, 1 suspect, 2 open, 3 half-open.", obs.L("shard", id)),
		}
		sm.Up.Set(1)
		m.perShard[id] = sm
	}
	return sm
}

// ObserveIngest records one routed ingest request's latency.
func (m *Metrics) ObserveIngest(d time.Duration) { m.ingestLatency.Observe(d.Seconds()) }

// WriteText stamps the gauges and renders the router's own families.
func (m *Metrics) WriteText(w io.Writer, now time.Time, shards int) {
	m.gUptime.Set(now.Sub(m.start).Seconds())
	m.gShards.SetInt(int64(shards))
	m.reg.WriteText(w)
}
