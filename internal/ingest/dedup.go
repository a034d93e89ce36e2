package ingest

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Stream-position deduplication.
//
// Ingest is exactly-once per stream even across network retries: a
// client (or the router retrying a sub-batch for it) names its
// logical stream with the X-RFPrism-Stream header and stamps every
// non-blank NDJSON line with its 1-based position in that stream via
// X-RFPrism-Stream-Pos. The daemon keeps a per-stream high-water
// mark: a line whose position is at or below the mark was already
// offered by an earlier delivery — after a mid-body connection
// reset, a timeout whose reply was lost, or a resume overshoot — and
// is skipped while still counting as accepted.
//
// The invariant that makes a plain high-water mark sufficient: per
// (stream, daemon) every delivery carries the same subsequence in
// global stream order (the router forwards per-EPC in request order,
// chunk by chunk) and acceptance is prefix-based, so the accepted
// set is exactly {pos ≤ mark}. The shard admits a request's lines in
// batches; positions ascend within a delivery, so a batch's lines at
// or below the mark are a prefix of it, skipped as one. Deliveries may
// overlap in time — a request parked by a partition is released on
// heal while its retry is in flight — so each batch's check, offer and
// mark advance happen under one lock. State is in-memory and
// TTL-bounded: a daemon restart forgets marks, trading a rare
// post-crash duplicate window for zero journal coupling (the crash
// path already has exactly-once identity via the emission ledger).

// Stream header names, shared with the router tier.
const (
	HeaderStream    = "X-RFPrism-Stream"
	HeaderStreamPos = "X-RFPrism-Stream-Pos"
)

// MaxStreamID bounds the accepted stream-ID length (the router
// validates against it too before forwarding).
const MaxStreamID = 128

const (
	dedupMaxStreams = 4096
	dedupTTL        = 10 * time.Minute
)

// StreamPos is a forward cursor over the 1-based stream positions of
// a request's non-blank lines, in line order.
// Contiguous form ("17"): positions 17, 18, … for any line count.
// Explicit form ("17,3,1"): first absolute, then positive deltas,
// one per line.
type StreamPos struct {
	next     uint64   // position of the next line
	deltas   []uint64 // explicit form only
	i        int      // lines yielded so far
	explicit bool
}

// ParseStreamPos parses an X-RFPrism-Stream-Pos header value. An
// explicit header whose positions pass 2^64−1 is refused: a wrapped
// position would fall at or below the stream's mark.
func ParseStreamPos(v string) (*StreamPos, error) {
	sp := &StreamPos{}
	last := uint64(0) // the last position the header encodes
	for field := 0; ; field++ {
		tok, rest, more := strings.Cut(v, ",")
		n, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 64)
		switch {
		case (err != nil || n == 0) && field == 0:
			return nil, fmt.Errorf("bad stream position %q", tok)
		case err != nil || n == 0:
			return nil, fmt.Errorf("bad stream position delta %q", tok)
		case last+n < last:
			return nil, fmt.Errorf("stream position delta %q overflows", tok)
		case field == 0:
			sp.next = n
		default:
			sp.deltas = append(sp.deltas, n)
		}
		last += n
		if !more {
			return sp, nil
		}
		sp.explicit, v = true, rest
	}
}

// Next returns the position of the next non-blank line. For the
// explicit form, a line past the encoded count is an error — the
// header must cover every line. For the contiguous form, a line past
// position 2^64−1 is an error.
func (sp *StreamPos) Next() (uint64, error) {
	p := sp.next
	switch {
	case !sp.explicit && p == 0:
		return 0, fmt.Errorf("stream position overflows after %d lines", sp.i)
	case !sp.explicit:
		sp.next++
	case sp.i < len(sp.deltas):
		sp.next += sp.deltas[sp.i]
	case sp.i > len(sp.deltas):
		return 0, fmt.Errorf("stream position header covers %d lines, request has more", len(sp.deltas)+1)
	}
	sp.i++
	return p, nil
}

// streamDedup tracks per-stream high-water marks with TTL and cap
// eviction.
type streamDedup struct {
	mu      sync.Mutex
	entries map[string]*dedupEntry
	now     func() time.Time
}

type dedupEntry struct {
	high uint64
	last time.Time
}

func newStreamDedup(now func() time.Time) *streamDedup {
	return &streamDedup{entries: make(map[string]*dedupEntry), now: now}
}

// admit offers one batch of a delivery of stream id, whose stream
// positions pos ascend, unless an earlier delivery already offered
// them. Because positions ascend and acceptance is prefix-based, the
// lines at or below the stream's mark form a prefix of pos: admit skips
// it, hands the rest to offer (which returns how many it took), and
// advances the mark to the last line taken. It reports the skipped
// prefix as dups. The check, the offer and the mark's advance hold one
// lock, so deliveries of one stream that overlap in time offer each
// position once, in stream order. The stream entry is created on first
// use, evicting stale or excess streams.
func (d *streamDedup) admit(id string, pos []uint64, offer func(from int) (int, error)) (dups, taken int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	e := d.entries[id]
	if e != nil {
		e.last = now
		for dups < len(pos) && pos[dups] <= e.high {
			dups++
		}
	}
	if dups == len(pos) {
		return dups, 0, nil
	}
	taken, err = offer(dups)
	if taken > 0 {
		if e == nil {
			if len(d.entries) >= dedupMaxStreams {
				d.evictLocked(now)
			}
			e = &dedupEntry{last: now}
			d.entries[id] = e
		}
		e.high = max(e.high, pos[dups+taken-1])
	}
	return dups, taken, err
}

// evictLocked drops expired streams; if none expired, the oldest one
// goes (callers hold mu).
func (d *streamDedup) evictLocked(now time.Time) {
	oldestID, oldest := "", time.Time{}
	for id, e := range d.entries {
		if now.Sub(e.last) > dedupTTL {
			delete(d.entries, id)
			continue
		}
		if oldestID == "" || e.last.Before(oldest) {
			oldestID, oldest = id, e.last
		}
	}
	if len(d.entries) >= dedupMaxStreams && oldestID != "" {
		delete(d.entries, oldestID)
	}
}

// streams reports how many streams are tracked (tests).
func (d *streamDedup) streams() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}
