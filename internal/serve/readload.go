package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Read-side load driver.
//
// RunReadLoad is the query half of the loadgen harness: it aims a
// population of plain pollers (GET ?latest=1), long-pollers
// (?wait&since) and SSE subscribers at an http.Handler — a wrapped
// rfprismd surface or the router — while ingest runs elsewhere, and
// reports request/event throughput plus a poll-latency distribution.
// Like router.RunLoad it drives the handler in-process, so a hundred
// thousand concurrent clients cost goroutines, not sockets.

// ReadLoadConfig tunes one RunReadLoad run.
type ReadLoadConfig struct {
	// Pollers is the number of plain GET ?latest=1 clients.
	Pollers int
	// LongPollers is the number of ?wait=&since= clients.
	LongPollers int
	// Subscribers is the number of SSE stream clients.
	Subscribers int
	// EPCs is the tag population clients target (round-robin). Must be
	// non-empty.
	EPCs []string
	// Duration is how long the load runs (default 3s).
	Duration time.Duration
	// PollInterval is each poller's period (default 1s), staggered so
	// the fleet's requests spread uniformly instead of thundering.
	PollInterval time.Duration
	// Wait is the long-poll hold (default 2s).
	Wait time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (c *ReadLoadConfig) defaults() {
	if c.Duration <= 0 {
		c.Duration = 3 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = time.Second
	}
	if c.Wait <= 0 {
		c.Wait = 2 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// ReadReport summarizes one RunReadLoad run.
type ReadReport struct {
	Clients   int           // total concurrent clients driven
	Requests  int64         // poll GETs completed
	LongPolls int64         // long-poll rounds completed
	Changed   int64         // long-poll rounds that returned a change
	Events    int64         // SSE result events received
	Streams   int64         // SSE streams opened
	Dropped   int64         // SSE streams ended by a hub eviction
	Throttled int64         // 429 responses observed (bucket or quota)
	Errors    int64         // unexpected statuses / transport failures
	Elapsed   time.Duration // wall time of the run
	QPS       float64       // (Requests + LongPolls) / Elapsed
	P50       time.Duration // poll-GET latency percentiles
	P99       time.Duration
	P999      time.Duration
}

// RunReadLoad drives the configured client population against h until
// Duration elapses or ctx ends.
func RunReadLoad(ctx context.Context, h http.Handler, cfg ReadLoadConfig) (ReadReport, error) {
	cfg.defaults()
	if len(cfg.EPCs) == 0 {
		return ReadReport{}, fmt.Errorf("serve: readload: no target EPCs")
	}
	total := cfg.Pollers + cfg.LongPollers + cfg.Subscribers
	if total == 0 {
		return ReadReport{}, fmt.Errorf("serve: readload: no clients configured")
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	var (
		rep  = ReadReport{Clients: total}
		hist latHist
		wg   sync.WaitGroup
	)
	counters := &readCounters{}
	start := cfg.Now()

	for i := 0; i < cfg.Pollers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			poller(runCtx, h, &cfg, id, &hist, counters)
		}(i)
	}
	for i := 0; i < cfg.LongPollers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			longPoller(runCtx, h, &cfg, cfg.Pollers+id, counters)
		}(i)
	}
	for i := 0; i < cfg.Subscribers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			subscriber(runCtx, h, &cfg, cfg.Pollers+cfg.LongPollers+id, counters)
		}(i)
	}
	wg.Wait()

	rep.Elapsed = cfg.Now().Sub(start)
	rep.Requests = counters.requests.Load()
	rep.LongPolls = counters.longpolls.Load()
	rep.Changed = counters.changed.Load()
	rep.Events = counters.events.Load()
	rep.Streams = counters.streams.Load()
	rep.Dropped = counters.dropped.Load()
	rep.Throttled = counters.throttled.Load()
	rep.Errors = counters.errors.Load()
	if secs := rep.Elapsed.Seconds(); secs > 0 {
		rep.QPS = float64(rep.Requests+rep.LongPolls) / secs
	}
	rep.P50 = hist.percentile(0.50)
	rep.P99 = hist.percentile(0.99)
	rep.P999 = hist.percentile(0.999)
	return rep, nil
}

type readCounters struct {
	requests  atomic.Int64
	longpolls atomic.Int64
	changed   atomic.Int64
	events    atomic.Int64
	streams   atomic.Int64
	dropped   atomic.Int64
	throttled atomic.Int64
	errors    atomic.Int64
}

// clientEPC spreads clients round-robin over the tag population. The
// EPC comes back path-escaped: cloned populations use EPCs like
// "t31#c000042", and an unescaped '#' would silently truncate the
// request path to a fragment.
func clientEPC(cfg *ReadLoadConfig, id int) string {
	return url.PathEscape(cfg.EPCs[id%len(cfg.EPCs)])
}

// stagger returns client id's phase offset within the interval so the
// fleet's requests spread uniformly.
func stagger(id, fleet int, interval time.Duration) time.Duration {
	if fleet <= 1 {
		return 0
	}
	return interval * time.Duration(id%fleet) / time.Duration(fleet)
}

// sleepCtx pauses interruptibly; false means the run is over.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func poller(ctx context.Context, h http.Handler, cfg *ReadLoadConfig, id int, hist *latHist, c *readCounters) {
	epc := clientEPC(cfg, id)
	path := "/v1/tags/" + epc + "?latest=1"
	key := fmt.Sprintf("load-%d", id)
	if !sleepCtx(ctx, stagger(id, cfg.Pollers, cfg.PollInterval)) {
		return
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
		if err != nil {
			c.errors.Add(1)
			return
		}
		req.Header.Set("X-API-Key", key)
		w := &discardResponse{}
		t0 := time.Now()
		h.ServeHTTP(w, req)
		hist.observe(time.Since(t0))
		switch w.status() {
		case http.StatusOK, http.StatusNotFound:
			c.requests.Add(1)
		case http.StatusTooManyRequests:
			c.throttled.Add(1)
		default:
			c.errors.Add(1)
		}
		if !sleepCtx(ctx, cfg.PollInterval) {
			return
		}
	}
}

func longPoller(ctx context.Context, h http.Handler, cfg *ReadLoadConfig, id int, c *readCounters) {
	epc := clientEPC(cfg, id)
	key := fmt.Sprintf("load-%d", id)
	since := uint64(0)
	if !sleepCtx(ctx, stagger(id, cfg.LongPollers, cfg.Wait)) {
		return
	}
	for ctx.Err() == nil {
		path := fmt.Sprintf("/v1/tags/%s?wait=%s&since=%d", epc, cfg.Wait, since)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
		if err != nil {
			c.errors.Add(1)
			return
		}
		req.Header.Set("X-API-Key", key)
		w := &bufResponse{}
		h.ServeHTTP(w, req)
		switch w.status() {
		case http.StatusOK:
			var reply struct {
				Epoch   uint64 `json:"epoch"`
				Changed bool   `json:"changed"`
			}
			if json.Unmarshal(w.body, &reply) != nil {
				c.errors.Add(1)
				continue
			}
			c.longpolls.Add(1)
			if reply.Changed {
				c.changed.Add(1)
			}
			if reply.Epoch > since {
				since = reply.Epoch
			}
		case http.StatusTooManyRequests:
			c.throttled.Add(1)
			sleepCtx(ctx, 50*time.Millisecond)
		case http.StatusNotFound:
			// Tag not known yet (ingest still warming): back off briefly.
			c.longpolls.Add(1)
			sleepCtx(ctx, 50*time.Millisecond)
		default:
			if ctx.Err() == nil {
				c.errors.Add(1)
			}
			return
		}
	}
}

func subscriber(ctx context.Context, h http.Handler, cfg *ReadLoadConfig, id int, c *readCounters) {
	epc := clientEPC(cfg, id)
	path := "/v1/tags/" + epc + "/stream"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	if err != nil {
		c.errors.Add(1)
		return
	}
	req.Header.Set("X-API-Key", fmt.Sprintf("load-%d", id))

	pr, pw := io.Pipe()
	w := &streamResponse{pw: pw}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(w, req)
		pw.Close()
	}()
	c.streams.Add(1)

	sc := bufio.NewScanner(pr)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: result"):
			c.events.Add(1)
		case strings.HasPrefix(line, "event: dropped"):
			c.dropped.Add(1)
		}
	}
	<-done
	if w.status() == http.StatusTooManyRequests {
		c.throttled.Add(1)
		c.streams.Add(-1)
	} else if w.status() != http.StatusOK && ctx.Err() == nil {
		c.errors.Add(1)
	}
}

// discardResponse is the cheapest possible ResponseWriter: pollers
// only need the status code, so the body is dropped without buffering
// — at 100k clients the encode cost stays, the alloc churn goes.
type discardResponse struct {
	header http.Header
	code   int
}

func (d *discardResponse) Header() http.Header {
	if d.header == nil {
		d.header = make(http.Header)
	}
	return d.header
}

func (d *discardResponse) WriteHeader(code int) {
	if d.code == 0 {
		d.code = code
	}
}

func (d *discardResponse) Write(b []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	return len(b), nil
}

func (d *discardResponse) status() int {
	if d.code == 0 {
		return http.StatusOK
	}
	return d.code
}

// bufResponse buffers the body (long-poll replies are one small JSON
// object).
type bufResponse struct {
	header http.Header
	code   int
	body   []byte
}

func (b *bufResponse) Header() http.Header {
	if b.header == nil {
		b.header = make(http.Header)
	}
	return b.header
}

func (b *bufResponse) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}

func (b *bufResponse) Write(p []byte) (int, error) {
	b.WriteHeader(http.StatusOK)
	b.body = append(b.body, p...)
	return len(p), nil
}

func (b *bufResponse) status() int {
	if b.code == 0 {
		return http.StatusOK
	}
	return b.code
}

// streamResponse adapts an SSE handler to an io.Pipe so a loadgen
// client can consume the stream while the handler is still writing.
// Flush is a no-op: pipe writes are already synchronous.
type streamResponse struct {
	header http.Header
	code   atomic.Int32
	pw     *io.PipeWriter
}

func (s *streamResponse) Header() http.Header {
	if s.header == nil {
		s.header = make(http.Header)
	}
	return s.header
}

func (s *streamResponse) WriteHeader(code int) {
	s.code.CompareAndSwap(0, int32(code))
}

func (s *streamResponse) Write(b []byte) (int, error) {
	s.WriteHeader(http.StatusOK)
	return s.pw.Write(b)
}

func (s *streamResponse) Flush() {}

func (s *streamResponse) status() int {
	if c := s.code.Load(); c != 0 {
		return int(c)
	}
	return http.StatusOK
}

// latHist is a lock-free log₂-bucketed latency histogram: bucket i
// counts samples in [2^i, 2^(i+1)) microseconds. Percentiles come back
// as the matching bucket's upper bound — ±2× resolution, which is
// plenty for a load report, at the cost of one atomic add per sample
// across a hundred thousand concurrent clients.
type latHist struct {
	buckets [40]atomic.Int64
	count   atomic.Int64
}

func (h *latHist) observe(d time.Duration) {
	us := d.Microseconds()
	if us < 1 {
		us = 1
	}
	idx := bits.Len64(uint64(us)) - 1
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
}

func (h *latHist) percentile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return time.Duration(1<<(i+1)) * time.Microsecond
		}
	}
	return time.Duration(1<<len(h.buckets)) * time.Microsecond
}
