package ingest

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"rfprism"
	"rfprism/internal/api"
	"rfprism/internal/mathx"
)

// EstimateOut is the JSON shape of a successful disentangled estimate
// (the canonical wire struct; see internal/api).
type EstimateOut = api.Estimate

// TagResult is one window's outcome as delivered to sinks: the window
// assembly metadata, the pipeline health summary and either the
// estimate or the error. It is the canonical /v1 wire struct (see
// internal/api) — the NDJSON sink, the journal's emission ledger, the
// snapshot store and every HTTP tier share the one shape.
type TagResult = api.TagResult

// makeTagResult merges a closed window's assembly metadata with its
// pipeline outcome.
func makeTagResult(cw ClosedWindow, r rfprism.WindowResult, at time.Time, latency time.Duration) TagResult {
	tr := TagResult{
		Schema:    api.Version,
		EPC:       cw.EPC,
		Seq:       cw.Seq,
		FirstSeq:  cw.FirstSeq,
		LastSeq:   cw.LastSeq,
		At:        at,
		Reason:    cw.Reason.String(),
		Readings:  len(cw.Readings),
		Channels:  cw.Channels,
		Antennas:  cw.Antennas,
		LatencyMS: float64(latency) / float64(time.Millisecond),
		Attempts:  r.Attempts(),
	}
	if h := r.Health(); h != nil {
		tr.Degraded = h.Degraded
		tr.DroppedAntennas = h.DroppedAntennas()
	}
	if spans := r.Spans(); len(spans) > 0 {
		tr.StageMS = make(map[string]float64, len(spans))
		for _, sp := range spans {
			tr.StageMS[string(sp.Stage)] += float64(sp.Duration) / float64(time.Millisecond)
		}
	}
	if r.Err != nil {
		tr.Err = r.Err.Error()
		return tr
	}
	est := r.Result.Estimate
	tr.Estimate = &EstimateOut{
		X:        est.Pos.X,
		Y:        est.Pos.Y,
		Z:        est.Pos.Z,
		AlphaDeg: mathx.Deg(est.Alpha),
		Kt:       est.Kt,
		Bt0:      est.Bt0,
	}
	tr.Confidence = makeConfidence(r.Result.Confidence, r.Health())
	return tr
}

// makeConfidence converts the solver's confidence block to its wire
// shape (nil in, nil out — the default pipeline runs without the
// likelihood layer).
func makeConfidence(c *rfprism.Confidence, h *rfprism.Health) *api.Confidence {
	if c == nil {
		return nil
	}
	out := &api.Confidence{
		SigmaPhase:      c.SigmaPhase,
		NormLogLik:      c.NormLogLik,
		PosCI90:         [3]float64{c.PosCI90.X, c.PosCI90.Y, c.PosCI90.Z},
		RadialCI90:      c.RadialCI90(),
		AlphaCI90Deg:    mathx.Deg(c.AlphaCI90),
		Sigma:           append([]float64(nil), c.Sigma...),
		AmbiguityMargin: c.AmbiguityMargin,
		AltBasins:       c.AltBasins,
	}
	if h != nil {
		for _, a := range h.Antennas {
			if a.Weight > 0 && a.Weight < 1 {
				out.Weights = append(out.Weights, api.AntennaWeight{ID: a.ID, Weight: a.Weight})
			}
		}
	}
	return out
}

// Sink consumes per-window results. Emit may be called from the
// daemon's result goroutine only, but Close may race a late Emit, so
// implementations guard their state. Emit errors are counted, not
// fatal: one misbehaving sink must not stall the pipeline.
type Sink interface {
	Emit(TagResult) error
	Close() error
}

// NDJSONSink writes one JSON line per result — the daemon's durable
// output and the replay mode's artifact. It does not own the
// underlying writer; the caller closes files.
type NDJSONSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewNDJSONSink wraps w.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	return &NDJSONSink{enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (s *NDJSONSink) Emit(r TagResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.enc.Encode(r); err != nil {
		return fmt.Errorf("ingest: ndjson sink: %w", err)
	}
	return nil
}

// Close implements Sink.
func (s *NDJSONSink) Close() error { return nil }
