// Package api is the canonical /v1 wire codec shared by every
// RF-Prism HTTP tier (the ingest daemon, the shard router and the
// serving tier). Each tier used to hand-roll its JSON shapes; they
// drifted one field at a time, and a client could not tell from a
// payload which revision of the surface produced it. This package is
// now the single source of truth:
//
//   - TagResult (and its Estimate/Confidence sub-objects) is the one
//     result shape — NDJSON sinks, the journal's emission ledger, the
//     snapshot store, SSE `data:` payloads and the router's merged
//     answers all marshal the same struct.
//   - Error is the uniform error envelope
//     {"error","code","retry_after_ms",...} every non-2xx response
//     carries, across all three tiers.
//   - TagList/TagHistory/WaitReply/IngestReply are the success bodies
//     of the tag surface.
//   - Frame renders SSE wire frames byte-identically across the
//     serving tier and the router's relay/merge.
//
// Every payload is stamped with the schema revision (Version) in a
// leading "schema" field. Old field names are preserved verbatim —
// v1.0 clients keep decoding v1.1 payloads; they just ignore the new
// keys. The checked-in JSON Schema (schema/v1.1.json) is the
// machine-readable contract; the api-conformance CI job validates
// live payloads from a booted daemon and router against it.
package api

import (
	"encoding/json"
	"net/http"
	"time"
)

// Version is the wire schema revision stamped into the "schema" field
// of every /v1 payload.
const Version = "v1.1"

// Estimate is the JSON shape of a successful disentangled estimate.
type Estimate struct {
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Z        float64 `json:"z"`
	AlphaDeg float64 `json:"alphaDeg"`
	Kt       float64 `json:"kt"`
	Bt0      float64 `json:"bt0"`
}

// AntennaWeight is one antenna's soft weight in the likelihood layer's
// joint objective (only antennas kept at partial weight are listed).
type AntennaWeight struct {
	ID     int     `json:"id"`
	Weight float64 `json:"w"`
}

// Confidence is the per-result confidence block the likelihood layer
// attaches when the daemon runs with -confidence: per-axis 90%
// confidence intervals from the Fisher-information covariance, the
// normalized log-likelihood of the fit, and the explicit margin over
// the best 2π-ambiguity alternative basin.
type Confidence struct {
	// SigmaPhase is the per-window phase-noise scale (rad) estimated
	// from the per-antenna fit residuals.
	SigmaPhase float64 `json:"sigmaPhase"`
	// NormLogLik is the per-observation normalized log-likelihood of
	// the accepted solution (0 is a perfect fit; more negative is
	// worse).
	NormLogLik float64 `json:"normLogLik"`
	// PosCI90 is the per-axis 90% confidence half-width (meters), x/y/z.
	PosCI90 [3]float64 `json:"posCi90"`
	// RadialCI90 is the scalar positional confidence radius (meters).
	RadialCI90 float64 `json:"radialCi90"`
	// AlphaCI90Deg is the orientation 90% confidence half-width
	// (degrees).
	AlphaCI90Deg float64 `json:"alphaCi90Deg"`
	// Sigma is the per-parameter standard deviation vector (the square
	// root of the covariance diagonal), in solver parameter order.
	Sigma []float64 `json:"sigma,omitempty"`
	// AmbiguityMargin is the log-likelihood margin of the accepted
	// solution over the best competing 2π-ambiguity basin (larger is
	// more certain; near 0 means a genuinely ambiguous window).
	AmbiguityMargin float64 `json:"ambiguityMargin"`
	// AltBasins counts the distinct alternative basins the ambiguity
	// probes found.
	AltBasins int `json:"altBasins,omitempty"`
	// Weights lists the antennas the likelihood layer kept at partial
	// weight instead of shedding (absent when every antenna ran at
	// full weight).
	Weights []AntennaWeight `json:"antennaWeights,omitempty"`
}

// TagResult is one window's outcome as delivered to sinks and served
// on every tag endpoint: the window assembly metadata, the pipeline
// health summary and either the estimate or the error.
type TagResult struct {
	// Schema is the wire schema revision (Version). Empty only on
	// payloads re-read from pre-v1.1 journals.
	Schema string `json:"schema,omitempty"`
	EPC    string `json:"epc"`
	Seq    int    `json:"seq"`
	// FirstSeq is the journal sequence number of the window's first
	// report — the durable window identity recovery dedups on. Zero
	// when the daemon runs without a journal.
	FirstSeq uint64 `json:"firstSeq,omitempty"`
	// LastSeq is the journal sequence number of the window's last
	// report. Recovery uses it to spot a replayed session growing past
	// the window actually served under this identity and split there.
	LastSeq   uint64    `json:"lastSeq,omitempty"`
	At        time.Time `json:"at"`
	Reason    string    `json:"closeReason"`
	Readings  int       `json:"readings"`
	Channels  int       `json:"channels"`
	Antennas  int       `json:"antennas"`
	LatencyMS float64   `json:"latencyMs"`
	// Attempts is the number of processing attempts the window
	// consumed (> 1 when the daemon retried a transient fault).
	Attempts        int         `json:"attempts,omitempty"`
	Degraded        bool        `json:"degraded,omitempty"`
	DroppedAntennas []int       `json:"droppedAntennas,omitempty"`
	Estimate        *Estimate   `json:"estimate,omitempty"`
	Confidence      *Confidence `json:"confidence,omitempty"`
	Err             string      `json:"error,omitempty"`
	// StageMS is the per-pipeline-stage time (milliseconds, summed
	// across antennas and retries). Present only when the System runs
	// with a tracer installed.
	StageMS map[string]float64 `json:"stageMs,omitempty"`
}

// TagList is the GET /v1/tags body. Without pagination parameters only
// Schema and Tags are present (the legacy shape plus the schema
// stamp); a paged request adds Count (the full list size) and Next
// (the cursor of the following page). The router tier adds
// Partial/MissingShards when dead shards degraded the union.
type TagList struct {
	Schema string   `json:"schema"`
	Tags   []string `json:"tags"`
	// Count is the total EPC count before paging (present only on
	// paged requests; a pointer so an empty paged list still renders
	// "count":0).
	Count *int   `json:"count,omitempty"`
	Next  string `json:"next,omitempty"`
	// Partial marks a degraded scatter-gather: MissingShards lists the
	// shard IDs whose answers are absent from Tags.
	Partial       bool     `json:"partial,omitempty"`
	MissingShards []string `json:"missingShards,omitempty"`
}

// TagHistory is the GET /v1/tags/{epc} body (buffered results, oldest
// first).
type TagHistory struct {
	Schema  string      `json:"schema"`
	EPC     string      `json:"epc"`
	Results []TagResult `json:"results"`
}

// WaitReply is the long-poll (?wait=) response body. Result is present
// only when Changed.
type WaitReply struct {
	Schema  string     `json:"schema"`
	Epoch   uint64     `json:"epoch"`
	Changed bool       `json:"changed"`
	Result  *TagResult `json:"result,omitempty"`
}

// IngestReply is the body of a successful ingest.
type IngestReply struct {
	Schema   string `json:"schema,omitempty"`
	Accepted int    `json:"accepted"`
}

// Error is the uniform JSON error envelope. Every non-2xx response
// from every tier carries it; "retry_after_ms" is non-zero only under
// backpressure. Ingest errors add "accepted"/"line" so clients resume
// from the first unaccepted report; the router adds "shard" when one
// shard's failure decided the answer.
type Error struct {
	Schema       string `json:"schema,omitempty"`
	Error        string `json:"error"`
	Code         string `json:"code"`
	RetryAfterMS int64  `json:"retry_after_ms"`
	Accepted     int    `json:"accepted,omitempty"`
	Line         int    `json:"line,omitempty"`
	Shard        string `json:"shard,omitempty"`
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the uniform error envelope, stamped with the
// schema version.
func WriteError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	WriteJSON(w, status, Error{
		Schema: Version, Error: msg, Code: code,
		RetryAfterMS: retryAfter.Milliseconds(),
	})
}
