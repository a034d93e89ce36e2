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
// set is exactly {pos ≤ mark}. Deliveries may overlap in time — a
// request parked by a partition is released on heal while its retry
// is in flight — so each line's check, offer and mark advance happen
// under one lock. State is in-memory and TTL-bounded: a
// daemon restart forgets marks, trading a rare post-crash duplicate
// window for zero journal coupling (the crash path already has
// exactly-once identity via the emission ledger).

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

// StreamPos yields each non-blank line's 1-based stream position.
// Contiguous form ("17"): positions 17, 18, … for any line count.
// Explicit form ("17,3,1"): first absolute, then positive deltas,
// one per line.
type StreamPos struct {
	base     uint64
	deltas   []uint64 // explicit form only
	explicit bool
}

// ParseStreamPos parses an X-RFPrism-Stream-Pos header value.
func ParseStreamPos(v string) (*StreamPos, error) {
	parts := strings.Split(v, ",")
	base, err := strconv.ParseUint(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil || base == 0 {
		return nil, fmt.Errorf("bad stream position %q", parts[0])
	}
	sp := &StreamPos{base: base}
	if len(parts) == 1 {
		return sp, nil
	}
	sp.explicit = true
	sp.deltas = make([]uint64, 0, len(parts)-1)
	for _, p := range parts[1:] {
		d, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil || d == 0 {
			return nil, fmt.Errorf("bad stream position delta %q", p)
		}
		sp.deltas = append(sp.deltas, d)
	}
	return sp, nil
}

// At returns the position of non-blank line i (0-based). For the
// explicit form, i past the encoded count is an error — the header
// must cover every line.
func (sp *StreamPos) At(i int) (uint64, error) {
	if !sp.explicit {
		return sp.base + uint64(i), nil
	}
	if i > len(sp.deltas) {
		return 0, fmt.Errorf("stream position header covers %d lines, request has more", len(sp.deltas)+1)
	}
	pos := sp.base
	for _, d := range sp.deltas[:i] {
		pos += d
	}
	return pos, nil
}

// Lines returns how many lines the explicit form covers (-1 when
// contiguous, i.e. unbounded).
func (sp *StreamPos) Lines() int {
	if !sp.explicit {
		return -1
	}
	return len(sp.deltas) + 1
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

// offer hands line pos of stream id to offer unless an earlier
// delivery of the stream already did, and reports a skipped line as a
// duplicate. The check, the offer and the mark's advance hold one
// lock, so deliveries of one stream that overlap in time offer each
// position once, in stream order. The mark advances only when offer
// succeeds; the stream entry is created on first use, evicting stale
// or excess streams.
func (d *streamDedup) offer(id string, pos uint64, offer func() error) (dup bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	e := d.entries[id]
	if e != nil {
		e.last = now
		if pos <= e.high {
			return true, nil
		}
	}
	if err := offer(); err != nil {
		return false, err
	}
	if e == nil {
		if len(d.entries) >= dedupMaxStreams {
			d.evictLocked(now)
		}
		e = &dedupEntry{last: now}
		d.entries[id] = e
	}
	e.high = pos
	return false, nil
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
