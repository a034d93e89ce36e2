// Package ingest turns a live stream of raw per-read reader reports
// into sessionized hop-round windows and drives them through the
// RF-Prism pipeline. It is the serving half the offline campaigns do
// not need: a real reader emits one (EPC, antenna, channel, phase,
// RSSI) tuple per singulated read, interleaved across the whole tag
// population, while the disentangler consumes one assembled hop round
// per tag per solve. The package provides the Sessionizer (per-EPC
// window assembly with coverage- and deadline-based closing), the
// Daemon (bounded queueing into System.ProcessStream, pluggable result
// sinks, explicit backpressure, graceful drain) and the HTTP Server
// (NDJSON ingest, per-tag result queries, health and metrics).
package ingest

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"rfprism/internal/core"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// CloseReason says why a window left the sessionizer.
type CloseReason int

const (
	// CloseCoverage: the window reached the configured distinct-channel
	// coverage — a full (or full-enough) hop round was assembled.
	CloseCoverage CloseReason = iota
	// CloseDeadline: the per-window dwell deadline fired before
	// coverage was reached; the window is partial but usable.
	CloseDeadline
	// CloseOverflow: the per-tag reading buffer hit its cap; closing
	// early bounds memory against chattering or misbehaving tags.
	CloseOverflow
	// CloseDrain: the daemon is shutting down and flushed the window.
	CloseDrain

	numCloseReasons = iota
)

// String names the reason for metrics labels and logs.
func (r CloseReason) String() string {
	switch r {
	case CloseCoverage:
		return "coverage"
	case CloseDeadline:
		return "deadline"
	case CloseOverflow:
		return "overflow"
	case CloseDrain:
		return "drain"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// SessionizerConfig tunes window assembly. The zero value gets
// serving-grade defaults.
type SessionizerConfig struct {
	// CoverageClose is the distinct-channel count that closes a window
	// as complete. Default (and cap) rf.NumChannels: one full hop
	// round. Lower values trade accuracy for latency.
	CoverageClose int
	// Dwell is the deadline from a window's first report to its forced
	// close. Default 15 s — one 50×200 ms hop round plus slack.
	Dwell time.Duration
	// MaxReadings caps the per-tag reading buffer; hitting it closes
	// the window immediately (CloseOverflow). Default 8192.
	MaxReadings int
	// MinAntennas is the distinct-antenna floor below which a
	// deadline- or drain-closed partial window is discarded instead of
	// emitted — the solver cannot use it (core.MinAntennas). Default 3
	// (the 2D minimum).
	MinAntennas int
}

func (c *SessionizerConfig) defaults() {
	if c.CoverageClose <= 0 || c.CoverageClose > rf.NumChannels {
		c.CoverageClose = rf.NumChannels
	}
	if c.Dwell <= 0 {
		c.Dwell = 15 * time.Second
	}
	if c.MaxReadings <= 0 {
		c.MaxReadings = 8192
	}
	if c.MinAntennas <= 0 {
		c.MinAntennas = core.MinAntennas(false)
	}
}

// ClosedWindow is one assembled hop-round window ready for the
// pipeline, plus the assembly metadata sinks and metrics report.
type ClosedWindow struct {
	EPC      string
	Seq      int // per-EPC window sequence number, from 0 (display only)
	Readings []sim.Reading
	Reason   CloseReason
	Channels int // distinct channels covered
	Antennas int // distinct antennas heard
	Opened   time.Time
	Closed   time.Time
	// FirstSeq/LastSeq are the journal sequence numbers of the first
	// and last report in the window (0 when the daemon runs without a
	// journal). (EPC, FirstSeq) is the window's durable identity:
	// unlike Seq it is derived from journal positions, so a post-crash
	// replay of the same retained reports reconstructs the same key.
	FirstSeq uint64
	LastSeq  uint64
}

// Key returns the window's durable identity.
func (cw ClosedWindow) Key() WindowKey {
	return WindowKey{EPC: cw.EPC, FirstSeq: cw.FirstSeq}
}

// ValidateReading checks a raw report for the properties the pipeline
// depends on: a non-empty EPC, an in-range channel, and finite
// phase/RSSI/frequency values. The daemon validates before journaling
// so the write-ahead log never accumulates garbage.
func ValidateReading(rd sim.Reading) error {
	if rd.EPC == "" {
		return fmt.Errorf("ingest: report has no EPC")
	}
	if rd.Channel < 0 || rd.Channel >= rf.NumChannels {
		return fmt.Errorf("ingest: report channel %d out of [0,%d)", rd.Channel, rf.NumChannels)
	}
	if !finite(rd.Phase) || !finite(rd.RSSI) || !finite(rd.FreqHz) {
		return fmt.Errorf("ingest: report has non-finite phase/rssi/freq")
	}
	return nil
}

// session is one tag's window under assembly.
type session struct {
	readings []sim.Reading
	// channels is the set of channels heard, one bit each:
	// ValidateReading bounds them below rf.NumChannels ≤ 64.
	channels uint64
	// antennas holds antennas 0–63 as bits; other antenna numbers,
	// which ValidateReading does not bound, go in antennasOther.
	antennas      uint64
	antennasOther map[int]bool
	opened        time.Time
	deadline      time.Time
	seq           int
	firstSeq      uint64
	lastSeq       uint64
}

// The channel bitset needs every channel number below 64.
var _ [64 - rf.NumChannels]struct{}

// numAntennas counts the distinct antennas heard.
func (s *session) numAntennas() int {
	return bits.OnesCount64(s.antennas) + len(s.antennasOther)
}

// Sessionizer groups a mixed report stream into per-EPC hop-round
// windows. Reports may arrive out of time order and may repeat
// (antenna, channel) pairs — both are normal for a hopping reader read
// through multiple ports — and neither perturbs window assembly:
// coverage counts distinct channels once, and the solver does not care
// about intra-window report order.
//
// The Sessionizer itself is not goroutine-safe; the Daemon serializes
// access. Time is always passed in by the caller, so tests and replay
// drive the deadline clock explicitly.
type Sessionizer struct {
	cfg       SessionizerConfig
	tags      map[string]*session
	seqs      map[string]int
	buffered  int
	discarded int
}

// NewSessionizer builds a sessionizer with cfg (zero fields take
// defaults).
func NewSessionizer(cfg SessionizerConfig) *Sessionizer {
	cfg.defaults()
	return &Sessionizer{
		cfg:  cfg,
		tags: make(map[string]*session),
		seqs: make(map[string]int),
	}
}

// Config returns the effective (defaulted) configuration.
func (z *Sessionizer) Config() SessionizerConfig { return z.cfg }

// Open returns the number of windows currently under assembly.
func (z *Sessionizer) Open() int { return len(z.tags) }

// Buffered returns the total readings held across open windows.
func (z *Sessionizer) Buffered() int { return z.buffered }

// Discarded returns the count of partial windows dropped for having
// fewer than MinAntennas distinct antennas at close time.
func (z *Sessionizer) Discarded() int { return z.discarded }

// Add ingests one report at wall time now. It returns the tag's window
// when the report completed it (coverage or overflow), and an error
// when the report itself is malformed (empty EPC, out-of-range
// channel) — malformed reports are dropped without touching any
// window.
func (z *Sessionizer) Add(rd sim.Reading, now time.Time) (ClosedWindow, bool, error) {
	return z.AddSeq(rd, 0, now)
}

// AddSeq is Add with the report's journal sequence number attached, so
// the closed window carries its durable (EPC, FirstSeq) identity. A
// journal-less daemon passes 0.
func (z *Sessionizer) AddSeq(rd sim.Reading, seq uint64, now time.Time) (ClosedWindow, bool, error) {
	if err := ValidateReading(rd); err != nil {
		return ClosedWindow{}, false, err
	}
	cw, closed := z.add(rd, seq, now)
	return cw, closed, nil
}

// add is AddSeq of a report ValidateReading accepted.
func (z *Sessionizer) add(rd sim.Reading, seq uint64, now time.Time) (ClosedWindow, bool) {
	s := z.tags[rd.EPC]
	if s == nil {
		s = &session{
			opened:   now,
			deadline: now.Add(z.cfg.Dwell),
			seq:      z.seqs[rd.EPC],
			firstSeq: seq,
		}
		z.tags[rd.EPC] = s
	}
	s.lastSeq = seq
	s.readings = append(s.readings, rd)
	s.channels |= 1 << uint(rd.Channel)
	if uint(rd.Antenna) < 64 {
		s.antennas |= 1 << uint(rd.Antenna)
	} else {
		if s.antennasOther == nil {
			s.antennasOther = make(map[int]bool)
		}
		s.antennasOther[rd.Antenna] = true
	}
	z.buffered++
	switch {
	case bits.OnesCount64(s.channels) >= z.cfg.CoverageClose:
		return z.close(rd.EPC, s, CloseCoverage, now)
	case len(s.readings) >= z.cfg.MaxReadings:
		return z.close(rd.EPC, s, CloseOverflow, now)
	}
	return ClosedWindow{}, false
}

// close removes the session and packages it as a ClosedWindow, unless
// the window is unusable (fewer than MinAntennas distinct antennas),
// in which case it is discarded and counted.
func (z *Sessionizer) close(epc string, s *session, reason CloseReason, now time.Time) (ClosedWindow, bool) {
	delete(z.tags, epc)
	z.seqs[epc] = s.seq + 1
	z.buffered -= len(s.readings)
	if s.numAntennas() < z.cfg.MinAntennas {
		z.discarded++
		return ClosedWindow{}, false
	}
	return ClosedWindow{
		EPC:      epc,
		Seq:      s.seq,
		Readings: s.readings,
		Reason:   reason,
		Channels: bits.OnesCount64(s.channels),
		Antennas: s.numAntennas(),
		Opened:   s.opened,
		Closed:   now,
		FirstSeq: s.firstSeq,
		LastSeq:  s.lastSeq,
	}, true
}

// DropEmittedSessions removes every open session whose (EPC, firstSeq)
// identity appears in emitted, returning how many were dropped. This is
// recovery's guard against re-serving drain-flushed windows: a clean
// shutdown emits open sessions as partial windows (their ledger line
// carries the session's firstSeq), so a replay that rebuilds such a
// session would later close it under an identity the ledger already
// holds — a duplicate. The dropped reports were served in the partial
// window; fresh reports start a new session with a new identity.
func (z *Sessionizer) DropEmittedSessions(emitted map[WindowKey]uint64) int {
	n := 0
	for epc, s := range z.tags {
		if _, ok := emitted[WindowKey{EPC: epc, FirstSeq: s.firstSeq}]; !ok {
			continue
		}
		delete(z.tags, epc)
		z.seqs[epc] = s.seq + 1
		z.buffered -= len(s.readings)
		n++
	}
	return n
}

// Abort removes epc's open session without emitting it, returning the
// session's firstSeq and reading count. Unlike close it produces no
// window: the daemon uses it in breaker-tripped shed mode to hand a
// session's reports wholesale to the journal replayer — they are
// durable, and with no ledger line written a restart regroups them
// with the shed reports that follow and solves everything together.
// The per-EPC display counter still advances so a later window for the
// tag is visibly a new one.
func (z *Sessionizer) Abort(epc string) (firstSeq uint64, readings int, ok bool) {
	s := z.tags[epc]
	if s == nil {
		return 0, 0, false
	}
	delete(z.tags, epc)
	z.seqs[epc] = s.seq + 1
	z.buffered -= len(s.readings)
	return s.firstSeq, len(s.readings), true
}

// MinOpenSeq returns the smallest journal sequence number any open
// session still needs (the first report of the oldest-by-seq window
// under assembly), and whether any session is open. Retention must not
// delete journal segments at or above this position.
func (z *Sessionizer) MinOpenSeq() (uint64, bool) {
	var minSeq uint64
	found := false
	for _, s := range z.tags {
		if !found || s.firstSeq < minSeq {
			minSeq = s.firstSeq
			found = true
		}
	}
	return minSeq, found
}

// Expire closes every window whose dwell deadline has passed,
// returning the usable ones sorted by EPC (deterministic order).
// Deadline-closed windows with too few antennas are discarded.
func (z *Sessionizer) Expire(now time.Time) []ClosedWindow {
	return z.sweep(now, CloseDeadline, func(s *session) bool { return !s.deadline.After(now) })
}

// Drain closes every open window regardless of deadline — the
// shutdown flush. Unusable partials are discarded as in Expire.
func (z *Sessionizer) Drain(now time.Time) []ClosedWindow {
	return z.sweep(now, CloseDrain, func(*session) bool { return true })
}

func (z *Sessionizer) sweep(now time.Time, reason CloseReason, due func(*session) bool) []ClosedWindow {
	var epcs []string
	for epc, s := range z.tags {
		if due(s) {
			epcs = append(epcs, epc)
		}
	}
	sort.Strings(epcs)
	var out []ClosedWindow
	for _, epc := range epcs {
		if cw, ok := z.close(epc, z.tags[epc], reason, now); ok {
			out = append(out, cw)
		}
	}
	return out
}
