package router

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"time"

	"rfprism/internal/geom"
	"rfprism/internal/ingest"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// Load driver.
//
// RunLoad is the ingest half of the loadgen harness: it streams a
// reading iterator (typically sim.CloneStream over a simulated
// template) into an ingest endpoint as chunked NDJSON, speaking the
// full client protocol — resume-line semantics on backpressure, the
// Retry-After pause, at-most-one-delivery per line — and records the
// per-request latency distribution. It drives an http.Handler
// directly (a Router fronting a shard fleet, or a single rfprismd
// Server), so the measured path is the real multiplexer, decode,
// fan-out and shard round-trips without client-socket noise.

// LoadConfig tunes one RunLoad run.
type LoadConfig struct {
	// ChunkLines is the number of NDJSON lines per POST (default 512,
	// matching the router's own forwarding chunk).
	ChunkLines int
	// MaxRetries bounds consecutive backpressure or transient-fault
	// rounds on a single chunk before RunLoad gives up (default 1000).
	MaxRetries int
	// StreamID names the logical report stream for exactly-once
	// delivery: every POST carries it plus each line's stream position,
	// so a resume after a transient fault never duplicates a reading
	// server-side. Default: a fresh random ID per run.
	StreamID string
	// MaxPause caps one advertised Retry-After pause (default 30s,
	// the shared maxRetryAfter ceiling).
	MaxPause time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
	// Sleep overrides the Retry-After pause (tests). The default
	// honors the server's retry_after_ms, interruptibly.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (c *LoadConfig) defaults() {
	if c.ChunkLines <= 0 {
		c.ChunkLines = 512
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 1000
	}
	if c.StreamID == "" {
		id := make([]byte, 8)
		_, _ = crand.Read(id)
		c.StreamID = "load-" + hex.EncodeToString(id)
	}
	if c.MaxPause <= 0 {
		c.MaxPause = maxRetryAfter
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Sleep == nil {
		c.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
}

// LoadReport summarizes one RunLoad run. The percentile fields are
// over per-POST round-trip latency — each sample covers one chunk's
// full decode + fan-out + shard acknowledgement.
type LoadReport struct {
	Lines   int           // NDJSON lines delivered (accepted exactly once each)
	Posts   int           // HTTP requests issued (including retried ones)
	Retries int           // backpressure rounds (429 → pause → resume)
	Faults  int           // transient 5xx rounds recovered by a stream resume
	Elapsed time.Duration // first request start to last response
	P50     time.Duration
	P99     time.Duration
	P999    time.Duration
}

// RunLoad drains the iterator into h. Every yielded reading is
// marshaled once and delivered exactly once: a backpressured chunk is
// resumed from the server's accepted prefix after the advertised
// Retry-After. Any response other than 202 or a resumable 429 aborts
// the run.
func RunLoad(ctx context.Context, h http.Handler, cfg LoadConfig, next func() (sim.Reading, bool)) (LoadReport, error) {
	cfg.defaults()
	var (
		rep   LoadReport
		lats  []time.Duration
		chunk = make([][]byte, 0, cfg.ChunkLines)
		start = cfg.Now()
	)
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		if err := postChunk(ctx, h, &cfg, chunk, &rep, &lats); err != nil {
			return err
		}
		rep.Lines += len(chunk)
		chunk = chunk[:0]
		return nil
	}
	for {
		rd, ok := next()
		if !ok {
			break
		}
		chunk = append(chunk, sim.AppendReading(nil, rd))
		if len(chunk) >= cfg.ChunkLines {
			if err := flush(); err != nil {
				return rep, err
			}
		}
	}
	if err := flush(); err != nil {
		return rep, err
	}
	rep.Elapsed = cfg.Now().Sub(start)
	rep.P50 = percentileDuration(lats, 0.50)
	rep.P99 = percentileDuration(lats, 0.99)
	rep.P999 = percentileDuration(lats, 0.999)
	return rep, nil
}

// postChunk delivers one chunk, resuming from the accepted prefix
// across backpressure rounds and transient upstream faults. Every
// POST carries the run's stream identity, so a resume that re-sends
// lines a healthy shard already took (overshoot) deduplicates
// server-side instead of double-counting.
func postChunk(ctx context.Context, h http.Handler, cfg *LoadConfig, chunk [][]byte, rep *LoadReport, lats *[]time.Duration) error {
	sent, retries := 0, 0
	for sent < len(chunk) {
		if err := ctx.Err(); err != nil {
			return err
		}
		body := bytes.Join(chunk[sent:], []byte{'\n'})
		body = append(body, '\n')
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/ingest", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set(ingest.HeaderStream, cfg.StreamID)
		req.Header.Set(ingest.HeaderStreamPos, strconv.Itoa(rep.Lines+sent+1))
		w := &memResponse{header: make(http.Header)}
		t0 := cfg.Now()
		h.ServeHTTP(w, req)
		*lats = append(*lats, cfg.Now().Sub(t0))
		rep.Posts++
		var env struct {
			Error        string `json:"error"`
			Code         string `json:"code"`
			RetryAfterMS int64  `json:"retry_after_ms"`
			Accepted     int    `json:"accepted"`
		}
		if err := json.Unmarshal(w.body.Bytes(), &env); err != nil {
			return fmt.Errorf("router: loadgen: status %d with undecodable body %q", w.status(), w.body.String())
		}
		// The advertised pause: body retry_after_ms first, then the
		// Retry-After header (delta-seconds or HTTP-date), clamped so a
		// confused upstream cannot park the run.
		pause := time.Duration(env.RetryAfterMS) * time.Millisecond
		if pause <= 0 {
			if d, ok := parseRetryAfter(w.header.Get("Retry-After"), cfg.Now()); ok {
				pause = d
			}
		}
		if pause > cfg.MaxPause {
			pause = cfg.MaxPause
		}
		switch {
		case w.status() == http.StatusAccepted:
			if env.Accepted != len(chunk)-sent {
				return fmt.Errorf("router: loadgen: 202 accepted %d of %d lines", env.Accepted, len(chunk)-sent)
			}
			sent = len(chunk)
		case w.status() == http.StatusTooManyRequests:
			sent += env.Accepted
			if retries++; retries > cfg.MaxRetries {
				return fmt.Errorf("router: loadgen: chunk still backpressured after %d rounds", retries-1)
			}
			rep.Retries++
			if pause <= 0 {
				pause = 5 * time.Millisecond
			}
			if err := cfg.Sleep(ctx, pause); err != nil {
				return err
			}
		case transientStatus(w.status(), env.Code):
			// A shard vanished mid-fan-out (partition, reset, open
			// breaker): resume from the accepted prefix once the fault
			// window passes. The stream headers make the re-send safe.
			sent += env.Accepted
			if retries++; retries > cfg.MaxRetries {
				return fmt.Errorf("router: loadgen: chunk still failing after %d rounds: %d %s (%s)",
					retries-1, w.status(), env.Code, env.Error)
			}
			rep.Faults++
			if pause <= 0 {
				pause = 10 * time.Millisecond << uint(min(retries-1, 6))
			}
			if pause > cfg.MaxPause {
				pause = cfg.MaxPause
			}
			if err := cfg.Sleep(ctx, pause); err != nil {
				return err
			}
		default:
			return fmt.Errorf("router: loadgen: %d %s (%s)", w.status(), env.Code, env.Error)
		}
	}
	return nil
}

// transientStatus reports whether a refusal is worth a resume: bad
// gateways and timeouts always are, and 503 is unless the upstream
// is deliberately draining for shutdown.
func transientStatus(status int, code string) bool {
	switch status {
	case http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	case http.StatusServiceUnavailable:
		return code != ingest.CodeDraining
	}
	return false
}

// memResponse is a minimal in-memory http.ResponseWriter, so the load
// driver can call ServeHTTP without dragging httptest into non-test
// builds.
type memResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (m *memResponse) Header() http.Header { return m.header }

func (m *memResponse) WriteHeader(code int) {
	if m.code == 0 {
		m.code = code
	}
}

func (m *memResponse) Write(b []byte) (int, error) {
	m.WriteHeader(http.StatusOK)
	return m.body.Write(b)
}

func (m *memResponse) status() int {
	if m.code == 0 {
		return http.StatusOK
	}
	return m.code
}

// LoadTemplate builds the canonical loadgen template: one simulated
// tag's interleaved report stream (seeded scene, paper deployment),
// truncated to maxLines readings (0 keeps the full round). The
// template is what sim.CloneStream scales to an arbitrary tag
// population; truncation keeps the cloned corpus small enough that a
// 100k-tag replay stays in the NDJSON-megabytes range.
func LoadTemplate(seed int64, maxLines int) ([]sim.Reading, error) {
	hwRng := rand.New(rand.NewSource(seed))
	scene, err := sim.NewScene(sim.PaperAntennas2D(hwRng), rf.CleanSpace(), sim.DefaultConfig(), seed+999)
	if err != nil {
		return nil, err
	}
	none, err := rf.MaterialByName("none")
	if err != nil {
		return nil, err
	}
	region := sim.PaperRegion()
	pos := geom.Vec3{
		X: region.XMin + 0.4*(region.XMax-region.XMin),
		Y: region.YMin + 0.6*(region.YMax-region.YMin),
	}
	tracked := []sim.TrackedTag{{Tag: scene.NewTag("load"), Motion: scene.Place(pos, 0.3, none)}}
	template, err := scene.CollectStream(tracked, 1)
	if err != nil {
		return nil, err
	}
	if maxLines > 0 && len(template) > maxLines {
		template = template[:maxLines]
	}
	return template, nil
}

// OfflineWindowCount sessionizes the template offline (closed windows
// plus the drained tail) under cfg. Because cloning preserves each
// EPC's subsequence and sessionization is per-EPC, a cloned replay's
// exact expected window total is clones × this count — the loadgen
// harness's loss/duplication check and its windows/sec denominator.
func OfflineWindowCount(template []sim.Reading, cfg ingest.SessionizerConfig) (int, error) {
	z := ingest.NewSessionizer(cfg)
	now := time.Now()
	n := 0
	for i, rd := range template {
		_, closed, err := z.AddSeq(rd, uint64(i), now)
		if err != nil {
			return 0, fmt.Errorf("router: template reading %d rejected: %w", i, err)
		}
		if closed {
			n++
		}
	}
	return n + len(z.Drain(now)), nil
}

// percentileDuration returns the q-quantile (nearest-rank) of samples;
// zero for an empty set. The input is copied before sorting.
func percentileDuration(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := make([]time.Duration, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
