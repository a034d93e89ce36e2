package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"rfprism/internal/ingest"
	"rfprism/internal/sim"
)

// The load generator: one client loop posting pre-encoded NDJSON
// chunks to the router handler (with paced tag reads in between), and
// one SSE firehose subscription on the same handler. Both call
// ServeHTTP in process, so the measured path is the router's
// multiplexer, fan-out and shard round-trips without socket noise on
// the client side.

// chunk is one POST body: lines [from, from+n) of the stream.
type chunk struct {
	body []byte
	offs []int // offs[i] is where line i starts; offs[n] = len(body)
	from int
	due  time.Duration // open loop: send offset from the schedule start
}

// encodeChunks renders readings [from, to) as NDJSON bodies of at
// most size lines, once, before anything is timed.
func encodeChunks(rds []sim.Reading, from, to, size int, every time.Duration) ([]chunk, error) {
	var out []chunk
	for i := from; i < to; i += size {
		end := min(i+size, to)
		c := chunk{from: i, due: every * time.Duration(len(out))}
		for j := i; j < end; j++ {
			line, err := json.Marshal(rds[j])
			if err != nil {
				return nil, err
			}
			c.offs = append(c.offs, len(c.body))
			c.body = append(c.body, line...)
			c.body = append(c.body, '\n')
		}
		c.offs = append(c.offs, len(c.body))
		out = append(out, c)
	}
	return out, nil
}

// poster delivers chunks exactly once under one stream identity,
// resuming from the accepted prefix after a 429.
type poster struct {
	h        http.Handler
	streamID string
	postLat  []time.Duration // every ServeHTTP call
	retries  int             // 429 rounds waited out
}

func (p *poster) post(ctx context.Context, c *chunk) error {
	n := len(c.offs) - 1
	for sent := 0; sent < n; {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/ingest", bytes.NewReader(c.body[c.offs[sent]:]))
		if err != nil {
			return err
		}
		req.Header.Set(ingest.HeaderStream, p.streamID)
		req.Header.Set(ingest.HeaderStreamPos, strconv.Itoa(c.from+sent+1))
		w := httptest.NewRecorder()
		t0 := time.Now()
		p.h.ServeHTTP(w, req)
		p.postLat = append(p.postLat, time.Since(t0))
		var env struct {
			Code         string `json:"code"`
			RetryAfterMS int64  `json:"retry_after_ms"`
			Accepted     int    `json:"accepted"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			return fmt.Errorf("ingest: status %d with undecodable body %q", w.Code, w.Body.String())
		}
		switch w.Code {
		case http.StatusAccepted:
			if env.Accepted != n-sent {
				return fmt.Errorf("ingest: 202 accepted %d of %d lines", env.Accepted, n-sent)
			}
			sent = n
		case http.StatusTooManyRequests:
			sent += env.Accepted
			p.retries++
			pause := time.Duration(env.RetryAfterMS) * time.Millisecond
			if pause <= 0 {
				pause = 5 * time.Millisecond
			}
			t := time.NewTimer(pause)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		default:
			return fmt.Errorf("ingest: %d %s", w.Code, w.Body.String())
		}
	}
	return nil
}

// tagRead is one GET /v1/tags/{epc} through the router.
type tagRead struct {
	status int
	body   []byte
	lat    time.Duration
}

func readTag(ctx context.Context, h http.Handler, epc string) (tagRead, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "/v1/tags/"+epc, nil)
	if err != nil {
		return tagRead{}, err
	}
	w := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(w, req)
	return tagRead{status: w.Code, body: w.Body.Bytes(), lat: time.Since(t0)}, nil
}

// subscriber holds one /v1/stream firehose subscription on the router
// handler and stamps each result frame as its bytes arrive.
type subscriber struct {
	rec     *recorder
	mu      sync.Mutex
	buf     []byte
	started chan struct{}
	once    sync.Once
	bad     []string
	latest  string // EPC of the newest solved frame
	cancel  context.CancelFunc
	done    chan struct{}
}

func subscribe(h http.Handler, rec *recorder) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &subscriber{rec: rec, started: make(chan struct{}), cancel: cancel, done: make(chan struct{})}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "/v1/stream", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	go func() {
		defer close(s.done)
		h.ServeHTTP(s, req)
		s.once.Do(func() { close(s.started) })
	}()
	select {
	case <-s.started:
	case <-time.After(10 * time.Second):
		s.stop()
		return nil, fmt.Errorf("firehose subscription did not start")
	}
	return s, nil
}

// stop ends the subscription and waits for the handler to return.
func (s *subscriber) stop() {
	s.cancel()
	<-s.done
}

func (s *subscriber) Header() http.Header { return http.Header{} }

func (s *subscriber) WriteHeader(code int) {
	if code != http.StatusOK {
		s.mu.Lock()
		s.bad = append(s.bad, fmt.Sprintf("firehose status %d", code))
		s.mu.Unlock()
	}
	s.once.Do(func() { close(s.started) })
}

func (s *subscriber) Flush() {}

func (s *subscriber) Write(b []byte) (int, error) {
	now := time.Now()
	s.once.Do(func() { close(s.started) })
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(s.buf, b...)
	for {
		end := bytes.Index(s.buf, []byte("\n\n"))
		if end < 0 {
			break
		}
		s.frameLocked(s.buf[:end], now)
		s.buf = s.buf[end+2:]
	}
	return len(b), nil
}

// frameLocked handles one complete SSE frame.
func (s *subscriber) frameLocked(f []byte, now time.Time) {
	var event, data []byte
	for _, line := range bytes.Split(f, []byte{'\n'}) {
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = line[len("event: "):]
		case bytes.HasPrefix(line, []byte("data: ")):
			data = line[len("data: "):]
		}
	}
	if data == nil {
		return // heartbeat comment
	}
	if string(event) != "result" {
		s.bad = append(s.bad, fmt.Sprintf("firehose %s frame: %s", event, data))
		return
	}
	var tr struct {
		EPC      string          `json:"epc"`
		Seq      int             `json:"seq"`
		Estimate json.RawMessage `json:"estimate"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		s.bad = append(s.bad, fmt.Sprintf("undecodable result frame: %v", err))
		return
	}
	if tr.Estimate != nil {
		s.latest = tr.EPC
	}
	s.rec.frame(tr.EPC, tr.Seq, now)
}

// latestSolved returns the EPC of the newest solved frame ("" before
// the first): a tag certain to answer a read.
func (s *subscriber) latestSolved() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest
}

func (s *subscriber) problems() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.bad...)
}
