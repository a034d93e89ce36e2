package ingest

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rfprism/internal/api"
	"rfprism/internal/sim"
)

// MaxReportLine bounds one NDJSON report line (a sim.Reading encodes
// to well under 1 KiB; the margin tolerates vendor extensions).
const MaxReportLine = 1 << 20

// lineBuffers recycles the 64 KiB initial buffers of the report-line
// scanners: every POST /v1/ingest, on the router and on each shard,
// needs one, and a fresh one per request was the largest allocation
// on the ingest path.
var lineBuffers = sync.Pool{New: func() any {
	b := make([]byte, 64*1024)
	return &b
}}

// NewReportScanner returns a scanner of NDJSON report lines of up to
// MaxReportLine bytes whose initial buffer comes from a pool. Call
// release once neither the scanner nor a line it returned is in use.
func NewReportScanner(r io.Reader) (sc *bufio.Scanner, release func()) {
	buf := lineBuffers.Get().(*[]byte)
	sc = bufio.NewScanner(r)
	sc.Buffer((*buf)[:0], MaxReportLine)
	return sc, func() { lineBuffers.Put(buf) }
}

// Server exposes the daemon's write side over HTTP:
//
//	POST /v1/ingest   NDJSON reports, one sim.Reading per line
//
// Tag reads are not served here: serve.Server wraps this handler and
// answers GET /v1/tags and the streams from the snapshot store.
// Operational endpoints are unversioned by convention:
//
//	GET  /healthz     liveness: 200 as long as the process serves,
//	                  with the queue/journal/breaker snapshot
//	GET  /readyz      readiness: 503 while draining or while the
//	                  panic circuit breaker is tripped
//	GET  /metrics     Prometheus text format
//
// Liveness and readiness are deliberately distinct: a draining or
// breaker-tripped daemon is still alive (restarting it would lose the
// drain or the journal-only stream) but must be taken out of the load
// balancer rotation — /healthz keeps answering 200 while /readyz
// fails.
//
// Every error response is the uniform JSON envelope
// {"error","code","retry_after_ms"} (ingest errors add accepted/line so
// clients resume from the first unaccepted report). retry_after_ms is 0
// except under backpressure. The only exception is the Go mux's own 405
// (method not allowed) plain-text reply.
//
// Backpressure is explicit: when the window queue is full, ingest
// answers 429 with a jittered Retry-After header (mirrored in
// retry_after_ms) and reports how many lines were accepted before the
// refusal.
type Server struct {
	d   *Daemon
	mux *http.ServeMux
	log *slog.Logger
	// dedup holds the per-stream high-water marks behind the
	// X-RFPrism-Stream exactly-once retry protocol (dedup.go).
	dedup *streamDedup
	// jitter yields uniform [0,1) draws for Retry-After spreading;
	// tests pin it.
	jitter func() float64
}

// NewServer wires a daemon's HTTP API. Request logs go to the daemon's
// logger.
func NewServer(d *Daemon) *Server {
	s := &Server{d: d, mux: http.NewServeMux(), log: d.Logger(),
		dedup: newStreamDedup(d.cfg.Now), jitter: rand.Float64}
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Catch-all: unknown paths get the JSON envelope, not the mux's
	// plain-text 404.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no such endpoint: %s", r.URL.Path), 0)
	})
	return s
}

// Handler returns the routing handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Error codes of the uniform envelope.
const (
	CodeBadReport      = "bad_report"       // malformed or invalid report line
	CodeBackpressure   = "backpressure"     // queue full, retry after the advertised pause
	CodeDraining       = "draining"         // daemon is shutting down
	CodeNotFound       = "not_found"        // unknown endpoint or tag
	CodeBadParam       = "bad_param"        // malformed query parameter
	CodeReportTooLarge = "report_too_large" // one NDJSON line exceeds MaxReportLine (413)
)

// apiError is the uniform JSON error envelope (the canonical wire
// struct; see internal/api). Every non-2xx response from every
// endpoint carries it; "retry_after_ms" is non-zero only under
// backpressure. Ingest errors add "accepted"/"line" so clients resume
// from the first unaccepted report.
type apiError = api.Error

// ingestReply is the JSON body of a successful ingest.
type ingestReply = api.IngestReply

func writeJSON(w http.ResponseWriter, status int, v any) {
	api.WriteJSON(w, status, v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	api.WriteError(w, status, code, msg, retryAfter)
}

// admitBatchLines is how many decoded lines the ingest handler
// offers to the daemon in one call.
const admitBatchLines = 256

// admitBatch holds a request's decoded lines until they are offered.
type admitBatch struct {
	rds  []sim.Reading
	pos  []uint64 // stream positions, when the request names a stream
	line []int    // request line numbers, for the error envelope
}

var admitBatches = sync.Pool{New: func() any {
	return &admitBatch{
		rds:  make([]sim.Reading, 0, admitBatchLines),
		pos:  make([]uint64, 0, admitBatchLines),
		line: make([]int, 0, admitBatchLines),
	}
}}

func (b *admitBatch) reset() {
	b.rds, b.pos, b.line = b.rds[:0], b.pos[:0], b.line[:0]
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	sc, release := NewReportScanner(r.Body)
	defer release()
	b := admitBatches.Get().(*admitBatch)
	defer func() {
		b.reset()
		admitBatches.Put(b)
	}()
	accepted, line := 0, 0
	fail := func(status int, code string, retryAfter time.Duration, msg string) {
		s.log.Debug("ingest refused", "path", r.URL.Path, "code", code,
			"accepted", accepted, "line", line, "err", msg)
		writeJSON(w, status, apiError{
			Schema: api.Version,
			Error:  msg, Code: code, RetryAfterMS: retryAfter.Milliseconds(),
			Accepted: accepted, Line: line,
		})
	}
	// Stream dedup (dedup.go): when the request names its stream and
	// stamps line positions, lines at or below the stream's high-water
	// mark were offered by an earlier delivery — count them accepted
	// without re-offering, so transport retries are exactly-once.
	streamID := r.Header.Get(HeaderStream)
	if len(streamID) > MaxStreamID {
		fail(http.StatusBadRequest, CodeBadParam, 0, "stream id too long")
		return
	}
	var pos *StreamPos
	if streamID != "" {
		pos = &StreamPos{next: 1} // default: positions are line order
		if raw := r.Header.Get(HeaderStreamPos); raw != "" {
			var err error
			if pos, err = ParseStreamPos(raw); err != nil {
				fail(http.StatusBadRequest, CodeBadParam, 0, err.Error())
				return
			}
		}
	}
	// admit offers the decoded lines and empties the batch. A refusal
	// is answered as the line-by-line offers would have been: the
	// lines before the refused one are accepted, and "line" names it.
	admit := func() bool {
		if len(b.rds) == 0 {
			return true
		}
		var dups, taken int
		var err error
		if pos != nil {
			dups, taken, err = s.dedup.admit(streamID, b.pos, func(from int) (int, error) {
				return s.d.OfferBatch(b.rds[from:])
			})
		} else {
			taken, err = s.d.OfferBatch(b.rds)
		}
		if dups > 0 {
			// Already offered by an earlier delivery of this stream: a
			// retried sub-batch, a resume overshoot. Skipped, accepted.
			s.d.Metrics().ReportsDeduped.Add(int64(dups))
		}
		accepted += dups + taken
		if err == nil {
			b.reset()
			return true
		}
		line = b.line[dups+taken]
		switch {
		case errors.Is(err, ErrBusy):
			secs := retryAfterSeconds(s.d.RetryAfter(), s.jitter())
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			fail(http.StatusTooManyRequests, CodeBackpressure, time.Duration(secs)*time.Second, err.Error())
		case errors.Is(err, ErrDraining):
			fail(http.StatusServiceUnavailable, CodeDraining, 0, err.Error())
		default:
			fail(http.StatusBadRequest, CodeBadReport, 0, fmt.Sprintf("line %d: %v", line, err))
		}
		return false
	}
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		linePos := uint64(0)
		if pos != nil {
			p, err := pos.Next()
			if err != nil {
				if admit() {
					fail(http.StatusBadRequest, CodeBadParam, 0, err.Error())
				}
				return
			}
			linePos = p
		}
		rd, err := decodeReading(raw)
		if err != nil {
			if admit() {
				fail(http.StatusBadRequest, CodeBadReport, 0, fmt.Sprintf("line %d: %v", line, err))
			}
			return
		}
		b.rds, b.pos, b.line = append(b.rds, rd), append(b.pos, linePos), append(b.line, line)
		if len(b.rds) == admitBatchLines && !admit() {
			return
		}
	}
	if !admit() {
		return
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// Typed 413: the offending line starts past everything
			// accepted so far; a client resumes after shrinking it.
			// "line" is the resume position (the oversized line
			// itself), matching the router's envelope.
			line++
			fail(http.StatusRequestEntityTooLarge, CodeReportTooLarge, 0,
				fmt.Sprintf("line %d exceeds the %d-byte report line limit", line, MaxReportLine))
			return
		}
		fail(http.StatusBadRequest, CodeBadReport, 0, err.Error())
		return
	}
	s.log.Debug("ingest accepted", "path", r.URL.Path, "accepted", accepted)
	writeJSON(w, http.StatusAccepted, ingestReply{Schema: api.Version, Accepted: accepted})
}

// retryAfterSeconds converts the advertised backpressure pause into a
// jittered integer Retry-After value: uniform in [0.5, 1.5]× the base,
// floored at 1 s. Without the spread, every client refused in the same
// burst would sleep the same pause and stampede back in lockstep.
func retryAfterSeconds(base time.Duration, u float64) int {
	secs := base.Seconds() * (0.5 + u)
	n := int(math.Ceil(secs))
	if n < 1 {
		n = 1
	}
	return n
}

// healthState names the daemon's condition for health bodies.
func healthState(g Gauges) (state string, ready bool) {
	switch {
	case g.Draining:
		return "draining", false
	case g.BreakerTripped:
		return "breaker-tripped", false
	default:
		return "ok", true
	}
}

// handleHealthz is liveness: it answers 200 whenever the process can
// serve at all — a draining or breaker-tripped daemon must NOT be
// restarted by an orchestrator, only depublished (that is /readyz).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	g := s.d.Gauges()
	state, ready := healthState(g)
	body := map[string]any{
		"status":           state,
		"ready":            ready,
		"queueDepth":       g.QueueDepth,
		"queueCapacity":    g.QueueCap,
		"openSessions":     g.OpenSessions,
		"bufferedReadings": g.BufferedReadings,
	}
	if g.JournalEnabled {
		body["journal"] = map[string]any{
			"nextSeq":   g.JournalNextSeq,
			"syncedSeq": g.JournalSyncedSeq,
			"segments":  g.JournalSegments,
		}
	}
	if rec := s.d.Recovery(); rec.Ran {
		body["recovery"] = map[string]any{
			"replayedReports": rec.Replay.Reports,
			"replayedTo":      rec.ReplayedTo,
			"suppressed":      rec.Suppressed,
			"requeued":        rec.Requeued,
			"openSessions":    rec.OpenSessions,
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReadyz is readiness: 503 takes the instance out of rotation
// while it drains or sheds under a tripped panic breaker.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	g := s.d.Gauges()
	state, ready := healthState(g)
	if !ready {
		writeJSON(w, http.StatusServiceUnavailable, apiError{Schema: api.Version, Error: state, Code: "not_ready"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": state, "ready": true})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.d.Metrics().WriteText(w, s.d.cfg.Now(), s.d.Gauges())
}
