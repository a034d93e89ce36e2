package router

import (
	"bufio"
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rfprism/internal/api"
	"rfprism/internal/ingest"
	"rfprism/internal/obs"
	"rfprism/internal/serve"
	"rfprism/internal/sim"
)

// maxReportLine bounds one NDJSON report line: the shard daemon's own
// limit.
const maxReportLine = ingest.MaxReportLine

// Config tunes the router. The zero value gets serving defaults.
type Config struct {
	// Vnodes is the per-shard virtual-node count (DefaultVnodes).
	Vnodes int
	// ChunkLines is the fan-out granularity: the router reads up to
	// this many report lines, flushes them to their shards in
	// parallel, and only then reads more — bounding both memory and
	// the at-least-once overshoot window on a propagated refusal.
	// Default 512.
	ChunkLines int
	// ShardTimeout bounds every sub-request to one shard (ingest
	// sub-batches, scatter-gather reads, readiness probes). A shard
	// that cannot answer within it is treated as down for that
	// request. Default 10 s.
	ShardTimeout time.Duration
	// Client is the HTTP client for shard sub-requests (default: a
	// dedicated pooled client; timeouts come from ShardTimeout).
	Client *http.Client
	// Resilience tunes the self-healing shard transport: per-shard
	// circuit breakers, retry budget, hedged reads (resilience.go).
	Resilience ResilienceConfig
	// Limiter, when set, applies per-client stream quotas to the
	// router's SSE endpoints (the token-bucket half wraps the whole
	// handler via serve.Limiter.Middleware in cmd/rfprism-router).
	Limiter *serve.Limiter
	// Logger receives routing events. Default: discard.
	Logger *slog.Logger
	// Metrics, when set, is shared instrument set to record into.
	Metrics *Metrics
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (c *Config) defaults() {
	if c.Vnodes <= 0 {
		c.Vnodes = DefaultVnodes
	}
	if c.ChunkLines <= 0 {
		c.ChunkLines = 512
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 10 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics(c.Now())
	}
	c.Resilience.defaults()
}

// ShardInfo describes one ring member.
type ShardInfo struct {
	ID      string `json:"id"`
	BaseURL string `json:"url"`
}

// shard is one ring member plus its minted counters and health
// machine. The breaker is fresh per AddShard: a shard that leaves
// and rejoins starts healthy.
type shard struct {
	ShardInfo
	met *ShardMetrics
	ctl *breaker
}

// Router fans the rfprismd HTTP API out across an EPC-sharded fleet.
// It is stateless apart from ring membership: every report line
// belongs to exactly one shard (Ring.Owner of its EPC), reads
// scatter-gather, and all crash-safety state stays in the shards.
type Router struct {
	cfg Config
	met *Metrics
	log *slog.Logger
	mux *http.ServeMux

	// instance + streamSeq mint stream IDs for ingest requests that
	// arrive without one (resilience.go).
	instance  string
	streamSeq atomic.Int64

	mu     sync.RWMutex
	ring   *Ring
	shards map[string]*shard
}

// New builds a router with no shards; AddShard populates the ring.
func New(cfg Config) *Router {
	cfg.defaults()
	inst := make([]byte, 6)
	_, _ = crand.Read(inst)
	rt := &Router{
		cfg:      cfg,
		met:      cfg.Metrics,
		log:      cfg.Logger,
		mux:      http.NewServeMux(),
		instance: hex.EncodeToString(inst),
		ring:     NewRing(cfg.Vnodes),
		shards:   make(map[string]*shard),
	}
	rt.mux.HandleFunc("POST /v1/ingest", rt.handleIngest)
	rt.mux.HandleFunc("GET /v1/tags", rt.handleTags)
	rt.mux.HandleFunc("GET /v1/tags/{epc}", rt.handleTag)
	rt.mux.HandleFunc("GET /v1/tags/{epc}/stream", rt.handleTagStream)
	rt.mux.HandleFunc("GET /v1/stream", rt.handleFirehose)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /admin/shards", rt.handleAdminList)
	rt.mux.HandleFunc("POST /admin/shards", rt.handleAdminAdd)
	rt.mux.HandleFunc("DELETE /admin/shards/{id}", rt.handleAdminRemove)
	rt.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		rt.writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no such endpoint: %s", r.URL.Path), 0)
	})
	return rt
}

// Handler returns the routing handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Metrics exposes the router's instrument set.
func (rt *Router) Metrics() *Metrics { return rt.met }

// AddShard inserts a shard into the ring. Keys adjacent to its vnodes
// (~1/N of the keyspace) remap to it immediately; callers that need a
// seamless session handover drain the remapped EPCs from their old
// owners first (Cluster.AddShard does).
func (rt *Router) AddShard(id, baseURL string) error {
	if id == "" || baseURL == "" {
		return fmt.Errorf("router: shard needs an id and a base URL")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, dup := rt.shards[id]; dup {
		return fmt.Errorf("router: shard %q already in the ring", id)
	}
	met := rt.met.Shard(id)
	rt.shards[id] = &shard{
		ShardInfo: ShardInfo{ID: id, BaseURL: strings.TrimRight(baseURL, "/")},
		met:       met,
		ctl:       newBreaker(rt.cfg.Resilience, rt.cfg.Now, met, id),
	}
	rt.ring.Add(id)
	rt.log.Info("shard added", "shard", id, "url", baseURL, "shards", len(rt.shards))
	return nil
}

// RemoveShard takes a shard out of the ring. Its keys remap to the
// surviving shards; the shard's own journal/daemon lifecycle is the
// caller's business (Cluster.RemoveShard drains and hands off).
func (rt *Router) RemoveShard(id string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.shards[id]; !ok {
		return fmt.Errorf("router: unknown shard %q", id)
	}
	delete(rt.shards, id)
	rt.ring.Remove(id)
	rt.met.Shard(id).Up.Set(0)
	rt.log.Info("shard removed", "shard", id, "shards", len(rt.shards))
	return nil
}

// Shards lists the ring members, sorted by ID.
func (rt *Router) Shards() []ShardInfo {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]ShardInfo, 0, len(rt.shards))
	for _, s := range rt.shards {
		out = append(out, s.ShardInfo)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Owner returns the shard owning an EPC.
func (rt *Router) Owner(epc string) (ShardInfo, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	id, ok := rt.ring.Owner(epc)
	if !ok {
		return ShardInfo{}, false
	}
	return rt.shards[id].ShardInfo, true
}

// snapshot returns a consistent (ring owner function, shard list)
// view for one request's fan-out.
func (rt *Router) snapshot() (owner func(string) (*shard, bool), all []*shard) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	shards := make(map[string]*shard, len(rt.shards))
	all = make([]*shard, 0, len(rt.shards))
	for id, s := range rt.shards {
		shards[id] = s
		all = append(all, s)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].ID < all[b].ID })
	owner = func(epc string) (*shard, bool) {
		rt.mu.RLock()
		defer rt.mu.RUnlock()
		id, ok := rt.ring.Owner(epc)
		if !ok {
			return nil, false
		}
		s, ok := rt.shards[id]
		return s, ok
	}
	return owner, all
}

// --- error envelope -------------------------------------------------

// apiError is the uniform envelope shared with the shard daemons (the
// canonical wire struct; see internal/api). The router stamps the
// failing shard into the Shard field when one shard's failure decided
// the answer.
type apiError = api.Error

// Router-specific error codes (shard codes pass through verbatim).
const (
	CodeNoShards         = "no_shards"         // empty ring
	CodeShardUnavailable = "shard_unavailable" // transport error or shard 5xx
	CodeAllShardsDown    = "all_shards_down"   // scatter-gather found nobody
)

func writeJSON(w http.ResponseWriter, status int, v any) {
	api.WriteJSON(w, status, v)
}

func (rt *Router) writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	api.WriteError(w, status, code, msg, retryAfter)
}

// --- ingest fan-out -------------------------------------------------

// ingestReply is the success body, the same wire struct the shard
// daemons answer with, so single-daemon clients work against the
// router unchanged.
type ingestReply = api.IngestReply

// pendingLine is one report line awaiting its shard flush.
type pendingLine struct {
	global int    // 1-based position in the request stream
	pos    uint64 // position in the logical dedup stream (resilience.go)
}

// shardBatch accumulates one shard's lines within a chunk.
type shardBatch struct {
	sh    *shard
	lines []pendingLine
	// body is the sub-request body: the lines' verbatim NDJSON bytes,
	// each newline-terminated, appended while the request is parsed.
	body []byte
}

// subResult is one shard's answer to its sub-batch.
type subResult struct {
	sh       *shard
	sent     int
	accepted int           // prefix of the sub-batch the shard took
	status   int           // HTTP status (0 on transport error)
	code     string        // envelope code ("" when 2xx)
	msg      string        // error detail
	retry    time.Duration // Retry-After on backpressure
	err      error         // transport-level failure
}

// handleIngest fans an NDJSON report stream out per EPC. Lines are
// forwarded verbatim (bit-exact: the conformance suite depends on the
// shards seeing exactly the bytes a single daemon would), grouped into
// per-shard sub-batches and flushed chunk by chunk. Per-EPC order is
// preserved: an EPC's lines always target one shard, sub-batches keep
// request order, and chunks are sequential.
//
// Failure semantics: the reply's "accepted" is the longest fully-
// accepted prefix of the stream, and "line" = accepted+1 is where a
// client resumes. When several shards were mid-chunk, lines past the
// prefix may already sit in a healthy shard — a resume re-delivers
// them (counted in router_lines_total{outcome="overshoot"}; DESIGN.md
// §13). Backpressure propagates the WORST refusal: 429 with the
// maximum Retry-After any shard advertised.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	t0 := rt.cfg.Now()
	owner, _ := rt.snapshot()
	sc, release := ingest.NewReportScanner(r.Body)
	defer release()

	committed := 0 // lines in fully-accepted flushed chunks
	global := 0    // current line number
	pending := 0   // lines in the chunk: committed+1..committed+pending
	batches := make(map[string]*shardBatch)

	fail := func(status int, code, msg, shardID string, retry time.Duration) {
		retry = clampRetryAfter(retry)
		rt.met.ObserveIngest(rt.cfg.Now().Sub(t0))
		switch code {
		case ingest.CodeBackpressure:
			rt.met.IngestBackpress.Inc()
			secs := int((retry + time.Second - 1) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		case ingest.CodeBadReport, ingest.CodeReportTooLarge:
			rt.met.IngestBadReport.Inc()
		default:
			rt.met.IngestShardErr.Inc()
		}
		rt.log.Debug("ingest refused", "code", code, "accepted", committed, "shard", shardID, "err", msg)
		writeJSON(w, status, apiError{
			Schema: api.Version,
			Error:  msg, Code: code, RetryAfterMS: retry.Milliseconds(),
			Accepted: committed, Line: committed + 1, Shard: shardID,
		})
	}

	// Exactly-once identity: the client's stream headers pass through
	// so the shards' dedup marks make both router-side sub-batch
	// retries and client resume overshoot idempotent. A request that
	// arrives without a stream gets a minted per-request one, scoping
	// dedup to the router's own retries.
	streamID := strings.TrimSpace(r.Header.Get(ingest.HeaderStream))
	var clientPos *ingest.StreamPos
	if streamID == "" {
		streamID = rt.mintStream()
	} else {
		if len(streamID) > ingest.MaxStreamID {
			fail(http.StatusBadRequest, ingest.CodeBadParam,
				fmt.Sprintf("stream ID exceeds %d bytes", ingest.MaxStreamID), "", 0)
			return
		}
		if v := r.Header.Get(ingest.HeaderStreamPos); v != "" {
			sp, err := ingest.ParseStreamPos(v)
			if err != nil {
				fail(http.StatusBadRequest, ingest.CodeBadParam, err.Error(), "", 0)
				return
			}
			clientPos = sp
		}
	}

	flush := func(ctx context.Context) (ok bool, status int, code, msg, shardID string, retry time.Duration) {
		if pending == 0 {
			return true, 0, "", "", "", 0
		}
		ordered := make([]*shardBatch, 0, len(batches))
		for _, b := range batches {
			if len(b.lines) > 0 {
				ordered = append(ordered, b)
			}
		}
		results := make([]subResult, len(ordered))
		var wg sync.WaitGroup
		for i, b := range ordered {
			wg.Add(1)
			go func(i int, b *shardBatch) {
				defer wg.Done()
				results[i] = rt.sendBatch(ctx, b, streamID)
			}(i, b)
		}
		wg.Wait()

		// The chunk's longest fully-accepted prefix ends before the
		// first line any shard did not take; anything accepted beyond
		// it is overshoot a resume will re-deliver.
		prefix, taken := pending, 0
		allOK := true
		worst := subResult{}
		for i, res := range results {
			b := ordered[i]
			if n := min(res.accepted, len(b.lines)); n < len(b.lines) {
				prefix = min(prefix, b.lines[n].global-committed-1)
				taken += n
			} else {
				taken += len(b.lines)
			}
			if res.err != nil || res.status < 200 || res.status >= 300 {
				allOK = false
				if worse(res, worst) {
					worst = res
				}
			} else if res.code == ingest.CodeBackpressure {
				// A 2xx never carries a refusal code; defensive only.
				allOK = false
			}
		}
		if allOK {
			committed += pending
			pending = 0
			for _, b := range ordered {
				// The transport may still read the sent body after Do
				// returns, so a next chunk grows a fresh one.
				b.lines, b.body = b.lines[:0], nil
			}
			return true, 0, "", "", "", 0
		}
		if overshoot := taken - prefix; overshoot > 0 {
			rt.met.LinesOvershoot.Add(int64(overshoot))
		}
		committed += prefix
		// Backpressure: propagate the worst Retry-After across every
		// refusing shard, not just the first.
		if worst.code == ingest.CodeBackpressure {
			for _, res := range results {
				if res.code == ingest.CodeBackpressure && res.retry > worst.retry {
					worst.retry = res.retry
				}
			}
			return false, http.StatusTooManyRequests, worst.code, worst.msg, worst.sh.ID, worst.retry
		}
		status = worst.status
		code = worst.code
		msg = worst.msg
		if worst.err != nil {
			status = http.StatusBadGateway
			code = CodeShardUnavailable
			msg = worst.err.Error()
		}
		if code == "" {
			code = CodeShardUnavailable
		}
		return false, status, code, msg, worst.sh.ID, 0
	}

	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		global++
		rd, err := sim.ParseReading(raw)
		if err != nil {
			if ok, status, code, msg, shardID, retry := flush(r.Context()); !ok {
				fail(status, code, msg, shardID, retry)
				return
			}
			rt.met.LinesRejected.Inc()
			fail(http.StatusBadRequest, ingest.CodeBadReport, fmt.Sprintf("line %d: %v", global, err), "", 0)
			return
		}
		if err := ingest.ValidateReading(rd); err != nil {
			if ok, status, code, msg, shardID, retry := flush(r.Context()); !ok {
				fail(status, code, msg, shardID, retry)
				return
			}
			rt.met.LinesRejected.Inc()
			fail(http.StatusBadRequest, ingest.CodeBadReport, fmt.Sprintf("line %d: %v", global, err), "", 0)
			return
		}
		sh, ok := owner(rd.EPC)
		if !ok {
			rt.met.LinesRejected.Inc()
			fail(http.StatusServiceUnavailable, CodeNoShards, "no shards in the ring", "", 0)
			return
		}
		b := batches[sh.ID]
		if b == nil {
			b = &shardBatch{sh: sh}
			batches[sh.ID] = b
		}
		pos := uint64(global)
		if clientPos != nil {
			p, err := clientPos.Next()
			if err != nil {
				if ok, status, code, msg, shardID, retry := flush(r.Context()); !ok {
					fail(status, code, msg, shardID, retry)
					return
				}
				fail(http.StatusBadRequest, ingest.CodeBadParam, err.Error(), "", 0)
				return
			}
			pos = p
		}
		// The raw bytes are only valid until the next Scan: they are
		// copied straight into the shard's sub-request body.
		b.lines = append(b.lines, pendingLine{global: global, pos: pos})
		b.body = append(append(b.body, raw...), '\n')
		if pending++; pending >= rt.cfg.ChunkLines {
			if ok, status, code, msg, shardID, retry := flush(r.Context()); !ok {
				fail(status, code, msg, shardID, retry)
				return
			}
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			fail(http.StatusRequestEntityTooLarge, ingest.CodeReportTooLarge,
				fmt.Sprintf("line %d exceeds the %d-byte report line limit", global+1, maxReportLine), "", 0)
			return
		}
		fail(http.StatusBadRequest, ingest.CodeBadReport, err.Error(), "", 0)
		return
	}
	if ok, status, code, msg, shardID, retry := flush(r.Context()); !ok {
		fail(status, code, msg, shardID, retry)
		return
	}
	rt.met.IngestOK.Inc()
	rt.met.LinesRouted.Add(int64(committed))
	rt.met.ObserveIngest(rt.cfg.Now().Sub(t0))
	writeJSON(w, http.StatusAccepted, ingestReply{Schema: api.Version, Accepted: committed})
}

// worse ranks sub-batch failures for the propagated reply: a poisoned
// report beats backpressure beats transport trouble, and among equals
// the earliest-failing shard wins (its refusal pins the resume line).
func worse(a, b subResult) bool {
	if b.sh == nil {
		return true
	}
	rank := func(r subResult) int {
		switch {
		case r.code == ingest.CodeBadReport:
			return 3
		case r.code == ingest.CodeBackpressure:
			return 2
		default:
			return 1
		}
	}
	return rank(a) > rank(b)
}

// sendBatch posts one shard's sub-batch, retrying transport-level
// failures with jittered backoff. Retries are safe because the
// sub-request carries the stream's exactly-once identity: a reply
// lost after the shard offered the lines just deduplicates on the
// re-send. HTTP-level refusals (backpressure, bad report, 5xx) are
// never retried here — they propagate to the client, whose resume
// path owns that recovery. Every attempt sends the body the handler
// built while parsing, from the start.
func (rt *Router) sendBatch(ctx context.Context, b *shardBatch, streamID string) subResult {
	for attempt := 0; ; attempt++ {
		res := rt.sendBatchOnce(ctx, b, streamID)
		if res.err == nil || errors.Is(res.err, errBreakerOpen) ||
			attempt >= rt.cfg.Resilience.Retries || ctx.Err() != nil {
			return res
		}
		rt.met.Retries.Inc()
		if !sleepCtx(ctx, b.sh.ctl.backoff(attempt+1)) {
			return res
		}
	}
}

// sendBatchOnce is one attempt: breaker-gated, stream-stamped, and
// its outcome fed back into the shard's health machine.
func (rt *Router) sendBatchOnce(ctx context.Context, b *shardBatch, streamID string) subResult {
	res := subResult{sh: b.sh, sent: len(b.lines)}
	if err := b.sh.ctl.acquire(); err != nil {
		res.err = fmt.Errorf("shard %s: %w", b.sh.ID, err)
		rt.met.BreakerFastFail.Inc()
		return res
	}
	b.sh.met.Requests.Inc()
	start := rt.cfg.Now()
	tctx, cancel := context.WithTimeout(ctx, rt.cfg.ShardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(tctx, http.MethodPost, b.sh.BaseURL+"/v1/ingest", bytes.NewReader(b.body))
	if err != nil {
		res.err = err
		b.sh.met.Errors.Inc()
		b.sh.ctl.record(outcomeFail, 0)
		return res
	}
	// Unknown length: net/http then writes the body through its WriteTo,
	// not an io.LimitReader copy that allocates 32 KiB per sub-request.
	req.ContentLength = -1
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(ingest.HeaderStream, streamID)
	req.Header.Set(ingest.HeaderStreamPos, encodePositions(b.lines))
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		res.err = err
		b.sh.met.Errors.Inc()
		b.sh.met.Up.Set(0)
		rt.recordOutcome(b.sh, ctx, err, start)
		return res
	}
	defer resp.Body.Close()
	b.sh.met.Up.Set(1)
	res.status = resp.StatusCode
	var env struct {
		Error        string `json:"error"`
		Code         string `json:"code"`
		RetryAfterMS int64  `json:"retry_after_ms"`
		Accepted     int    `json:"accepted"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&env); err != nil {
		res.err = fmt.Errorf("shard %s: unparseable reply (%d): %w", b.sh.ID, resp.StatusCode, err)
		b.sh.met.Errors.Inc()
		rt.recordOutcome(b.sh, ctx, err, start)
		return res
	}
	// Any parseable HTTP reply — including 429 and 5xx — means the
	// wire is healthy: the breaker only tracks transport faults.
	b.sh.ctl.record(outcomeOK, rt.cfg.Now().Sub(start))
	res.accepted = env.Accepted
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		res.code = env.Code
		res.msg = fmt.Sprintf("shard %s: %s", b.sh.ID, env.Error)
		res.retry = clampRetryAfter(time.Duration(env.RetryAfterMS) * time.Millisecond)
		b.sh.met.Errors.Inc()
	}
	return res
}

// recordOutcome classifies a transport error for the breaker. A
// failure caused by the CLIENT going away (parent context done) says
// nothing about the shard: the half-open probe slot is released
// without an outcome.
func (rt *Router) recordOutcome(s *shard, parent context.Context, err error, start time.Time) {
	if parent.Err() != nil {
		s.ctl.release()
		return
	}
	o := outcomeFail
	if errors.Is(err, context.DeadlineExceeded) {
		o = outcomeTimeout
	}
	s.ctl.record(o, rt.cfg.Now().Sub(start))
}

// --- scatter-gather reads -------------------------------------------

// shardFetch is one shard's answer to a scatter-gather GET.
type shardFetch struct {
	sh     *shard
	status int
	header http.Header
	body   []byte
	err    error
}

// scatter fans a GET out to every shard in parallel.
func (rt *Router) scatter(ctx context.Context, all []*shard, path string) []shardFetch {
	out := make([]shardFetch, len(all))
	var wg sync.WaitGroup
	for i, s := range all {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			out[i] = rt.fetch(ctx, s, path)
		}(i, s)
	}
	wg.Wait()
	return out
}

// fetch GETs one shard path with the per-shard timeout, hedging slow
// answers and retrying transport failures (GETs are idempotent).
func (rt *Router) fetch(ctx context.Context, s *shard, path string) shardFetch {
	f := rt.fetchHedged(ctx, s, path)
	for attempt := 1; f.err != nil && !errors.Is(f.err, errBreakerOpen) &&
		attempt <= rt.cfg.Resilience.Retries && ctx.Err() == nil; attempt++ {
		rt.met.Retries.Inc()
		if !sleepCtx(ctx, s.ctl.backoff(attempt)) {
			break
		}
		f = rt.fetchHedged(ctx, s, path)
	}
	return f
}

// fetchHedged races a second identical GET against a slow primary:
// the hedge fires after the shard's adaptive p99-based delay and the
// first answer wins (the loser's context is canceled). Hedging a GET
// is safe — shards serve reads from immutable snapshots.
func (rt *Router) fetchHedged(ctx context.Context, s *shard, path string) shardFetch {
	if rt.cfg.Resilience.DisableHedging {
		return rt.fetchTimeout(ctx, s, path, rt.cfg.ShardTimeout)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type tagged struct {
		f     shardFetch
		hedge bool
	}
	results := make(chan tagged, 2) // buffered: the loser must not leak
	launch := func(hedge bool) {
		go func() { results <- tagged{rt.fetchTimeout(hctx, s, path, rt.cfg.ShardTimeout), hedge} }()
	}
	launch(false)
	timer := time.NewTimer(s.ctl.hedgeDelay(rt.cfg.ShardTimeout))
	defer timer.Stop()
	select {
	case r := <-results:
		return r.f
	case <-timer.C:
		rt.met.HedgesFired.Inc()
		launch(true)
	}
	first := <-results
	if first.f.err == nil {
		if first.hedge {
			rt.met.HedgesWon.Inc()
		}
		return first.f
	}
	// The first answer failed (often the hedge fast-failing on a
	// half-open breaker); give the one still in flight its chance.
	second := <-results
	if second.f.err == nil {
		if second.hedge {
			rt.met.HedgesWon.Inc()
		}
		return second.f
	}
	return first.f
}

// fetchTimeout GETs one shard path with an explicit timeout — a
// long-poll relay must outlive the shard's parked wait, so it cannot
// use the plain sub-request budget. Every read flows through the
// shard's breaker: open fails fast, and the outcome feeds back.
func (rt *Router) fetchTimeout(ctx context.Context, s *shard, path string, timeout time.Duration) shardFetch {
	f := shardFetch{sh: s}
	if err := s.ctl.acquire(); err != nil {
		f.err = fmt.Errorf("shard %s: %w", s.ID, err)
		rt.met.BreakerFastFail.Inc()
		return f
	}
	s.met.Requests.Inc()
	start := rt.cfg.Now()
	tctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(tctx, http.MethodGet, s.BaseURL+path, nil)
	if err != nil {
		f.err = err
		s.met.Errors.Inc()
		s.ctl.record(outcomeFail, 0)
		return f
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		f.err = err
		s.met.Errors.Inc()
		s.met.Up.Set(0)
		rt.recordOutcome(s, ctx, err, start)
		return f
	}
	defer resp.Body.Close()
	s.met.Up.Set(1)
	f.status = resp.StatusCode
	f.header = resp.Header
	f.body, f.err = io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if f.err != nil {
		s.met.Errors.Inc()
		rt.recordOutcome(s, ctx, f.err, start)
		return f
	}
	s.ctl.record(outcomeOK, rt.cfg.Now().Sub(start))
	return f
}

// handleTags scatter-gathers GET /v1/tags: the union of every live
// shard's EPC list. Dead shards degrade the answer instead of failing
// it — the body carries "partial" plus the missing shard IDs, and the
// X-RFPrism-Partial header flags it for clients that do not parse
// bodies.
func (rt *Router) handleTags(w http.ResponseWriter, r *http.Request) {
	_, all := rt.snapshot()
	if len(all) == 0 {
		rt.met.ScatterErr.Inc()
		rt.writeError(w, http.StatusServiceUnavailable, CodeNoShards, "no shards in the ring", 0)
		return
	}
	set := make(map[string]bool)
	var missing []string
	for _, f := range rt.scatter(r.Context(), all, "/v1/tags") {
		if f.err != nil || f.status != http.StatusOK {
			missing = append(missing, f.sh.ID)
			continue
		}
		var body struct {
			Tags []string `json:"tags"`
		}
		if err := json.Unmarshal(f.body, &body); err != nil {
			missing = append(missing, f.sh.ID)
			continue
		}
		for _, epc := range body.Tags {
			set[epc] = true
		}
	}
	if len(missing) == len(all) {
		rt.met.ScatterErr.Inc()
		rt.writeError(w, http.StatusServiceUnavailable, CodeAllShardsDown, "every shard failed the scatter", 0)
		return
	}
	tags := make([]string, 0, len(set))
	for epc := range set {
		tags = append(tags, epc)
	}
	sort.Strings(tags)
	reply := api.TagList{Schema: api.Version, Tags: tags}
	// Pagination mirrors the shard daemon's (?limit=&cursor= over the
	// merged, sorted union) so clients page the cluster identically.
	q := r.URL.Query()
	if cursor := api.Cursor(q); q.Get("limit") != "" || cursor != "" {
		limit, perr := api.ParseLimit(q)
		if perr != nil {
			rt.writeError(w, http.StatusBadRequest, ingest.CodeBadParam, perr.Error(), 0)
			return
		}
		total := len(tags)
		reply.Tags, reply.Next = api.PageEPCs(tags, limit, cursor)
		reply.Count = &total
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		reply.Partial = true
		reply.MissingShards = missing
		w.Header().Set("X-RFPrism-Partial", "1")
		rt.met.ScatterPartial.Inc()
	} else {
		rt.met.ScatterOK.Inc()
	}
	writeJSON(w, http.StatusOK, reply)
}

// handleTag routes a single-EPC read to its owning shard and relays
// the shard's reply verbatim (status and body): the owner is the only
// shard that can hold the tag, so there is nothing to gather.
func (rt *Router) handleTag(w http.ResponseWriter, r *http.Request) {
	epc := r.PathValue("epc")
	owner, _ := rt.snapshot()
	sh, ok := owner(epc)
	if !ok {
		rt.met.ScatterErr.Inc()
		rt.writeError(w, http.StatusServiceUnavailable, CodeNoShards, "no shards in the ring", 0)
		return
	}
	path := "/v1/tags/" + epc
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	// A long-poll parks on the shard for its full ?wait= hold: give the
	// relay that budget on top of the normal sub-request timeout so the
	// router does not cut the poll short.
	timeout := rt.cfg.ShardTimeout
	if waitRaw := r.URL.Query().Get("wait"); waitRaw != "" {
		// The shared parser clamps the hold the same way the shard
		// will, so the relay budget and the shard's park agree.
		if wait, perr := api.ParseWait(waitRaw); perr == nil {
			timeout += wait
		}
	}
	f := rt.fetchTimeout(r.Context(), sh, path, timeout)
	if f.err != nil {
		rt.met.ScatterErr.Inc()
		writeJSON(w, http.StatusBadGateway, apiError{
			Schema: api.Version,
			Error:  fmt.Sprintf("shard %s: %v", sh.ID, f.err),
			Code:   CodeShardUnavailable, Shard: sh.ID,
		})
		return
	}
	rt.met.ScatterOK.Inc()
	// Forward the shard's serving-tier headers: the epoch lets clients
	// start subscriptions race-free, Retry-After keeps the backpressure
	// contract intact through the relay.
	for _, h := range []string{"X-RFPrism-Epoch", "Retry-After"} {
		if v := f.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(f.status)
	_, _ = w.Write(f.body)
}

// --- health, readiness, metrics -------------------------------------

// handleHealthz is the router's own liveness: 200 while the process
// serves, with ring membership. It makes no shard calls — a dead
// fleet does not mean the router should be restarted.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	shards := rt.Shards()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"shards": len(shards),
	})
}

// shardHealth is one shard's probed condition.
type shardHealth struct {
	ID      string `json:"id"`
	State   string `json:"state"`   // ready | not-ready | down
	Breaker string `json:"breaker"` // healthy | suspect | open | half-open
}

// probeShards checks every shard's /readyz.
func (rt *Router) probeShards(ctx context.Context, all []*shard) (healths []shardHealth, ready int) {
	fetches := rt.scatter(ctx, all, "/readyz")
	healths = make([]shardHealth, len(fetches))
	for i, f := range fetches {
		h := shardHealth{ID: f.sh.ID, Breaker: f.sh.ctl.stateName()}
		switch {
		case f.err != nil:
			h.State = "down"
		case f.status == http.StatusOK:
			h.State = "ready"
			ready++
		default:
			h.State = "not-ready"
		}
		healths[i] = h
	}
	return healths, ready
}

// handleReadyz aggregates readiness: 200 only when every shard
// answers ready. Anything less is 503 with the per-shard map — a
// degraded cluster must leave the load-balancer rotation even though
// reads still degrade gracefully shard by shard.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	_, all := rt.snapshot()
	if len(all) == 0 {
		rt.writeError(w, http.StatusServiceUnavailable, CodeNoShards, "no shards in the ring", 0)
		return
	}
	healths, ready := rt.probeShards(r.Context(), all)
	body := map[string]any{
		"ready":  ready == len(all),
		"shards": healths,
	}
	if ready != len(all) {
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleMetrics serves the cluster aggregate: every live shard's
// exposition summed series-by-series (obs.MergeText), with the
// router's own router_* families appended. Shards that fail the
// scrape are skipped — their absence shows in router_shard_up.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	_, all := rt.snapshot()
	var texts [][]byte
	for _, f := range rt.scatter(r.Context(), all, "/metrics") {
		if f.err == nil && f.status == http.StatusOK {
			texts = append(texts, f.body)
		}
	}
	var own bytes.Buffer
	rt.met.WriteText(&own, rt.cfg.Now(), len(all))
	texts = append(texts, own.Bytes())
	var merged bytes.Buffer
	if err := obs.MergeText(&merged, texts...); err != nil {
		rt.writeError(w, http.StatusInternalServerError, "metrics_merge", err.Error(), 0)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write(merged.Bytes())
}

// --- admin ----------------------------------------------------------

func (rt *Router) handleAdminList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"shards": rt.Shards()})
}

// handleAdminAdd registers a shard: POST /admin/shards?id=s3&url=http://...
func (rt *Router) handleAdminAdd(w http.ResponseWriter, r *http.Request) {
	id, url := r.URL.Query().Get("id"), r.URL.Query().Get("url")
	if err := rt.AddShard(id, url); err != nil {
		rt.writeError(w, http.StatusBadRequest, "bad_shard", err.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"shards": rt.Shards()})
}

// handleAdminRemove takes a shard out of the ring (ring membership
// only — drain/handoff is the operator's or the Cluster's job).
func (rt *Router) handleAdminRemove(w http.ResponseWriter, r *http.Request) {
	if err := rt.RemoveShard(r.PathValue("id")); err != nil {
		rt.writeError(w, http.StatusNotFound, "bad_shard", err.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"shards": rt.Shards()})
}
