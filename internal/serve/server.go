package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"rfprism/internal/api"
	"rfprism/internal/ingest"
)

// Server is the read path of every tier that holds results. It serves
// the whole tag surface from the snapshot store:
//
//	GET /v1/tags               known EPCs (?limit=&cursor= pages)
//	GET /v1/tags/{epc}         buffered results (?latest=1 for one,
//	                           ?wait=&since= long-polls)
//	GET /v1/tags/{epc}/stream  SSE: every new result for one tag
//	GET /v1/stream             SSE firehose (?prefix= narrows by EPC prefix)
//
// Every other path falls through to the inner handler (the ingest API:
// POST /v1/ingest, health, metrics and the 404 catch-all). Wrap also
// applies the per-client limiter across the whole surface.
//
// A plain read loads one Snapshot and answers both the body and the
// X-RFPrism-Epoch header from it, so the advertised epoch is exactly
// the cut the body shows: a client that resumes since=<epoch> from a
// read misses nothing and sees nothing twice.
//
// SSE wire contract: every result gets its own frame with its own
// epoch as `id:`, so clients reconnect with Last-Event-ID (or
// ?since=<epoch>) and are replayed exactly the results after it from
// the snapshot's retained window, even from inside a swap batch. A
// client further behind than the window gets one `event: resync` (it
// must re-GET the full state) before live results resume. A consumer
// that cannot keep up is evicted: the stream ends with `event:
// dropped` and a typed reason.
type Server struct {
	store     *Store
	lim       *Limiter
	log       *slog.Logger
	heartbeat time.Duration

	streams atomic.Int64 // live SSE streams
}

// NewServer wires the read surface. lim may be nil (no limits); log
// may be nil (discards).
func NewServer(store *Store, lim *Limiter, log *slog.Logger) *Server {
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Server{store: store, lim: lim, log: log, heartbeat: 15 * time.Second}
}

// SetHeartbeat overrides the SSE keep-alive comment interval (tests).
func (s *Server) SetHeartbeat(d time.Duration) {
	if d > 0 {
		s.heartbeat = d
	}
}

// Streams returns the number of live SSE streams.
func (s *Server) Streams() int64 { return s.streams.Load() }

// Wrap mounts the read endpoints in front of inner (the ingest API
// handler) and applies the limiter to the combined surface.
func (s *Server) Wrap(inner http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/tags", s.handleTags)
	mux.HandleFunc("GET /v1/tags/{epc}", s.handleTag)
	mux.HandleFunc("GET /v1/tags/{epc}/stream", s.handleTagStream)
	mux.HandleFunc("GET /v1/stream", s.handleFirehose)
	mux.Handle("/", inner)
	return s.lim.Middleware(mux)
}

func setEpoch(w http.ResponseWriter, epoch uint64) {
	w.Header().Set("X-RFPrism-Epoch", strconv.FormatUint(epoch, 10))
}

func (s *Server) handleTags(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Snapshot()
	epcs := snap.EPCs()
	setEpoch(w, snap.Epoch())
	q := r.URL.Query()
	cursor := api.Cursor(q)
	if q.Get("limit") == "" && cursor == "" {
		// Unpaged shape: the pre-pagination field set plus the schema
		// stamp.
		s.log.Debug("tags listed", "path", r.URL.Path, "count", len(epcs))
		api.WriteJSON(w, http.StatusOK, api.TagList{Schema: api.Version, Tags: epcs})
		return
	}
	limit, perr := api.ParseLimit(q)
	if perr != nil {
		api.WriteError(w, http.StatusBadRequest, ingest.CodeBadParam, perr.Error(), 0)
		return
	}
	page, next := api.PageEPCs(epcs, limit, cursor)
	total := len(epcs)
	s.log.Debug("tags page served", "path", r.URL.Path, "page", len(page), "count", total)
	api.WriteJSON(w, http.StatusOK, api.TagList{Schema: api.Version, Tags: page, Count: &total, Next: next})
}

func (s *Server) handleTag(w http.ResponseWriter, r *http.Request) {
	epc := r.PathValue("epc")
	q := r.URL.Query()
	if waitRaw := q.Get("wait"); waitRaw != "" {
		s.handleTagWait(w, r, epc, waitRaw)
		return
	}
	snap := s.store.Snapshot()
	if q.Get("latest") != "" {
		res, _, ok := snap.Latest(epc)
		if !ok {
			s.log.Debug("tag query missed", "path", r.URL.Path, "epc", epc)
			api.WriteError(w, http.StatusNotFound, ingest.CodeNotFound, "unknown tag", 0)
			return
		}
		setEpoch(w, snap.Epoch())
		s.log.Debug("tag latest served", "path", r.URL.Path, "epc", epc)
		api.WriteJSON(w, http.StatusOK, res)
		return
	}
	history := snap.History(epc)
	if len(history) == 0 {
		s.log.Debug("tag query missed", "path", r.URL.Path, "epc", epc)
		api.WriteError(w, http.StatusNotFound, ingest.CodeNotFound, "unknown tag", 0)
		return
	}
	setEpoch(w, snap.Epoch())
	s.log.Debug("tag history served", "path", r.URL.Path, "epc", epc, "results", len(history))
	api.WriteJSON(w, http.StatusOK, api.TagHistory{Schema: api.Version, EPC: epc, Results: history})
}

// handleTagWait serves GET /v1/tags/{epc}?wait=30s&since=<epoch>: it
// holds the request until the tag changes past since or wait elapses,
// so a poller fleet costs one parked request each instead of a poll
// storm.
func (s *Server) handleTagWait(w http.ResponseWriter, r *http.Request, epc, waitRaw string) {
	wait, perr := api.ParseWait(waitRaw)
	if perr != nil {
		api.WriteError(w, http.StatusBadRequest, ingest.CodeBadParam, perr.Error(), 0)
		return
	}
	since, perr := api.ParseSince(r.URL.Query())
	if perr != nil {
		api.WriteError(w, http.StatusBadRequest, ingest.CodeBadParam, perr.Error(), 0)
		return
	}
	res, epoch, changed := s.store.WaitTag(r.Context(), epc, since, wait)
	setEpoch(w, epoch)
	reply := api.WaitReply{Schema: api.Version, Epoch: epoch, Changed: changed}
	if changed {
		reply.Result = &res
	}
	s.log.Debug("long-poll answered", "path", r.URL.Path, "epc", epc,
		"since", since, "epoch", epoch, "changed", changed)
	api.WriteJSON(w, http.StatusOK, reply)
}

func (s *Server) handleTagStream(w http.ResponseWriter, r *http.Request) {
	s.stream(w, r, Filter{EPC: r.PathValue("epc")})
}

func (s *Server) handleFirehose(w http.ResponseWriter, r *http.Request) {
	s.stream(w, r, Filter{Prefix: r.URL.Query().Get("prefix")})
}

func (s *Server) stream(w http.ResponseWriter, r *http.Request, f Filter) {
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		api.WriteError(w, http.StatusInternalServerError, "no_stream",
			"streaming unsupported by connection", 0)
		return
	}
	key := ClientKey(r)
	if !s.lim.AcquireStream(key) {
		writeThrottled(w, CodeStreamQuota, "concurrent stream quota exceeded", time.Second)
		return
	}
	defer s.lim.ReleaseStream(key)
	s.streams.Add(1)
	defer s.streams.Add(-1)

	// A fresh subscriber starts live: it is not replayed history it
	// never saw.
	since, resuming := api.SSEResume(r)
	// Subscribe before reading the snapshot: Publish runs after the
	// swap, so everything missing from this snapshot still arrives on
	// the channel, and everything at or below its epoch is served from
	// the catch-up below — no gap, no matter when swaps land.
	sub := s.store.Hub().Subscribe(f, s.store.cfg.SubscriberBuffer)
	defer s.store.Hub().Unsubscribe(sub)
	snap := s.store.Snapshot()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	setEpoch(w, snap.Epoch())
	w.WriteHeader(http.StatusOK)

	sw := &sseWriter{w: w}
	if resuming {
		batches, ok := snap.Since(since)
		if !ok {
			// The client is behind the retained window: tell it to
			// re-GET the full state, then continue live.
			sw.event(snap.Epoch(), "resync", fmt.Appendf(nil, `{"epoch":%d}`, snap.Epoch()))
		}
		for _, b := range batches {
			for i, res := range b.Results {
				if f.matches(res.EPC) {
					sw.result(b.First+uint64(i), res)
				}
			}
		}
	} else if f.EPC != "" {
		// A fresh per-tag subscriber gets the current state up front so
		// it need not race a separate GET against the stream start.
		if res, epoch, ok := snap.Latest(f.EPC); ok {
			sw.result(epoch, res)
		}
	}
	// Live events at or below the snapshot's epoch were served by the
	// catch-up above (or predate the subscription). last is also the id
	// of a closing dropped frame.
	last := snap.Epoch()
	flusher.Flush()
	if sw.err != nil {
		return
	}
	s.log.Debug("stream open", "path", r.URL.Path, "epc", f.EPC, "prefix", f.Prefix,
		"since", since, "epoch", last)

	hb := time.NewTicker(s.heartbeat)
	defer hb.Stop()
	ctx := r.Context()
	for {
		select {
		case ev, ok := <-sub.C:
			// Drain whatever else is queued before flushing once —
			// under a burst this coalesces dozens of events per write.
			for more := true; ok && more; {
				if ev.Epoch > last && f.matches(ev.Result.EPC) {
					sw.result(ev.Epoch, ev.Result)
					last = ev.Epoch
				}
				select {
				case ev, ok = <-sub.C:
				default:
					more = false
				}
			}
			if !ok {
				reason := sub.Dropped()
				sw.event(last, "dropped", fmt.Appendf(nil, `{"reason":%q}`, reason.String()))
				flusher.Flush()
				s.log.Debug("stream dropped", "path", r.URL.Path, "reason", reason.String())
				return
			}
			flusher.Flush()
			if sw.err != nil {
				return
			}
		case <-hb.C:
			sw.comment("hb")
			flusher.Flush()
			if sw.err != nil {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// sseWriter renders Server-Sent Events frames, remembering the first
// write error so the stream loop can stop cleanly.
type sseWriter struct {
	w   io.Writer
	err error
}

func (s *sseWriter) result(epoch uint64, res any) {
	data, err := json.Marshal(res)
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	s.event(epoch, "result", data)
}

func (s *sseWriter) event(id uint64, event string, data []byte) {
	if s.err != nil {
		return
	}
	frame := api.Frame{ID: id, HasID: true, Event: event, Data: data}
	if _, err := s.w.Write(frame.Bytes()); err != nil {
		s.err = err
	}
}

func (s *sseWriter) comment(text string) {
	if s.err != nil {
		return
	}
	if _, err := s.w.Write(api.Comment(text)); err != nil {
		s.err = err
	}
}
