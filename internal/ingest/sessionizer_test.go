package ingest

import (
	"testing"
	"time"

	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

func mkRead(epc string, ant, ch int) sim.Reading {
	f, _ := rf.ChannelFreq(ch)
	return sim.Reading{EPC: epc, Antenna: ant, Channel: ch, FreqHz: f, Phase: 1.0, RSSI: -50}
}

var t0 = time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)

// feed pushes reports through Add, failing the test on validation
// errors and returning every window that closed.
func feed(t *testing.T, z *Sessionizer, now time.Time, reads ...sim.Reading) []ClosedWindow {
	t.Helper()
	var out []ClosedWindow
	for i, rd := range reads {
		cw, closed, err := z.Add(rd, now)
		if err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
		if closed {
			out = append(out, cw)
		}
	}
	return out
}

// TestSessionizerCoverageClose: a window closes exactly when its
// distinct-channel coverage reaches the threshold, and duplicate
// (antenna, channel) reads count once toward coverage while still
// being kept in the window.
func TestSessionizerCoverageClose(t *testing.T) {
	z := NewSessionizer(SessionizerConfig{CoverageClose: 3, MinAntennas: 1})
	var reads []sim.Reading
	// Channels 0 and 1, each read twice through two antennas:
	// 4 distinct (antenna, channel) pairs, repeated = 8 reports, but
	// only 2 distinct channels — must NOT close.
	for rep := 0; rep < 2; rep++ {
		for ant := 0; ant < 2; ant++ {
			reads = append(reads, mkRead("A", ant, 0), mkRead("A", ant, 1))
		}
	}
	if closed := feed(t, z, t0, reads...); len(closed) != 0 {
		t.Fatalf("window closed on duplicate reads: %+v", closed)
	}
	if z.Open() != 1 || z.Buffered() != 8 {
		t.Fatalf("open=%d buffered=%d, want 1/8", z.Open(), z.Buffered())
	}
	closed := feed(t, z, t0.Add(time.Second), mkRead("A", 0, 2))
	if len(closed) != 1 {
		t.Fatalf("third distinct channel did not close the window")
	}
	cw := closed[0]
	if cw.Reason != CloseCoverage || cw.Channels != 3 || cw.Antennas != 2 || len(cw.Readings) != 9 {
		t.Fatalf("closed window meta wrong: %+v", cw)
	}
	if cw.EPC != "A" || cw.Seq != 0 {
		t.Fatalf("identity wrong: epc=%q seq=%d", cw.EPC, cw.Seq)
	}
	if cw.Opened != t0 || cw.Closed != t0.Add(time.Second) {
		t.Fatalf("timestamps wrong: %v → %v", cw.Opened, cw.Closed)
	}
	if z.Open() != 0 || z.Buffered() != 0 {
		t.Fatalf("session not reclaimed: open=%d buffered=%d", z.Open(), z.Buffered())
	}
}

// TestSessionizerOutOfOrder: reports arriving out of reading-time
// order assemble the same window — arrival order, not timestamp
// order, drives sessionization.
func TestSessionizerOutOfOrder(t *testing.T) {
	z := NewSessionizer(SessionizerConfig{CoverageClose: 3, MinAntennas: 1})
	late := mkRead("A", 0, 2)
	late.T = 10 * time.Second
	early := mkRead("A", 0, 0)
	early.T = time.Second
	mid := mkRead("A", 0, 1)
	mid.T = 5 * time.Second
	closed := feed(t, z, t0, late, early, mid)
	if len(closed) != 1 {
		t.Fatalf("out-of-order stream did not close a window")
	}
	if got := closed[0].Readings; got[0].T != 10*time.Second || got[1].T != time.Second {
		t.Fatalf("readings reordered: %v", got)
	}
}

// TestSessionizerInterleavedTags: two tags' interleaved reports land
// in separate windows with independent sequence numbers.
func TestSessionizerInterleavedTags(t *testing.T) {
	z := NewSessionizer(SessionizerConfig{CoverageClose: 2, MinAntennas: 1})
	closed := feed(t, z, t0,
		mkRead("A", 0, 0), mkRead("B", 1, 5),
		mkRead("A", 0, 1), // closes A seq 0
		mkRead("B", 1, 6), // closes B seq 0
		mkRead("A", 2, 7), mkRead("B", 0, 8),
		mkRead("A", 2, 9), // closes A seq 1
	)
	if len(closed) != 3 {
		t.Fatalf("got %d closed windows, want 3", len(closed))
	}
	type key struct {
		epc string
		seq int
	}
	want := map[key][]int{
		{"A", 0}: {0, 1},
		{"B", 0}: {5, 6},
		{"A", 1}: {7, 9},
	}
	for _, cw := range closed {
		chans, ok := want[key{cw.EPC, cw.Seq}]
		if !ok {
			t.Fatalf("unexpected window %s/%d", cw.EPC, cw.Seq)
		}
		for i, rd := range cw.Readings {
			if rd.Channel != chans[i] {
				t.Errorf("%s/%d reading %d: channel %d, want %d", cw.EPC, cw.Seq, i, rd.Channel, chans[i])
			}
			if rd.EPC != cw.EPC {
				t.Errorf("window %s holds a reading from %s", cw.EPC, rd.EPC)
			}
		}
	}
	if z.Open() != 1 {
		t.Fatalf("B's second window should still be open, open=%d", z.Open())
	}
}

// TestSessionizerDeadline: the dwell deadline closes partial windows
// that meet the antenna floor and discards the ones that do not.
func TestSessionizerDeadline(t *testing.T) {
	z := NewSessionizer(SessionizerConfig{Dwell: time.Second, MinAntennas: 3})
	// Tag A is heard through 3 antennas (usable partial); tag B only
	// through 1 (unusable — the solver needs core.MinAntennas).
	feed(t, z, t0,
		mkRead("A", 0, 0), mkRead("A", 1, 1), mkRead("A", 2, 2),
		mkRead("B", 0, 0),
	)
	if got := z.Expire(t0.Add(500 * time.Millisecond)); len(got) != 0 {
		t.Fatalf("expired before deadline: %+v", got)
	}
	expired := z.Expire(t0.Add(2 * time.Second))
	if len(expired) != 1 {
		t.Fatalf("got %d expired windows, want 1 (A)", len(expired))
	}
	cw := expired[0]
	if cw.EPC != "A" || cw.Reason != CloseDeadline || cw.Antennas != 3 {
		t.Fatalf("wrong expired window: %+v", cw)
	}
	if z.Discarded() != 1 {
		t.Fatalf("discarded=%d, want 1 (B below antenna floor)", z.Discarded())
	}
	if z.Open() != 0 {
		t.Fatalf("sessions remain after expiry: %d", z.Open())
	}
	// B's next window starts a fresh sequence number even though its
	// first window was discarded — seq counts windows opened, so the
	// query side can spot gaps.
	closed := feed(t, z, t0.Add(3*time.Second),
		mkRead("B", 0, 0), mkRead("B", 1, 1), mkRead("B", 2, 2))
	_ = closed
	drained := z.Drain(t0.Add(4 * time.Second))
	if len(drained) != 1 || drained[0].EPC != "B" || drained[0].Seq != 1 {
		t.Fatalf("drain after discard: %+v", drained)
	}
	if drained[0].Reason != CloseDrain {
		t.Fatalf("drain reason: %v", drained[0].Reason)
	}
}

// TestSessionizerOverflow: the per-tag buffer cap closes the window
// early instead of growing without bound.
func TestSessionizerOverflow(t *testing.T) {
	z := NewSessionizer(SessionizerConfig{MaxReadings: 4, MinAntennas: 1})
	var closed []ClosedWindow
	// 4 reports on only 2 distinct channels: coverage can't close it,
	// the cap must.
	closed = append(closed, feed(t, z, t0,
		mkRead("A", 0, 0), mkRead("A", 1, 0), mkRead("A", 0, 1), mkRead("A", 1, 1))...)
	if len(closed) != 1 || closed[0].Reason != CloseOverflow || len(closed[0].Readings) != 4 {
		t.Fatalf("overflow close wrong: %+v", closed)
	}
}

// TestSessionizerRejectsMalformed: empty EPCs and out-of-range
// channels are refused without opening sessions.
func TestSessionizerRejectsMalformed(t *testing.T) {
	z := NewSessionizer(SessionizerConfig{})
	if _, _, err := z.Add(sim.Reading{Antenna: 0, Channel: 0}, t0); err == nil {
		t.Error("empty EPC accepted")
	}
	if _, _, err := z.Add(mkRead("A", 0, rf.NumChannels), t0); err == nil {
		t.Error("out-of-range channel accepted")
	}
	if _, _, err := z.Add(sim.Reading{EPC: "A", Channel: -1}, t0); err == nil {
		t.Error("negative channel accepted")
	}
	if z.Open() != 0 {
		t.Fatalf("malformed reports opened %d sessions", z.Open())
	}
}

// TestSessionizerDefaults: the zero config gets the documented
// serving defaults.
func TestSessionizerDefaults(t *testing.T) {
	cfg := NewSessionizer(SessionizerConfig{}).Config()
	if cfg.CoverageClose != rf.NumChannels {
		t.Errorf("CoverageClose default %d, want %d", cfg.CoverageClose, rf.NumChannels)
	}
	if cfg.MinAntennas != 3 {
		t.Errorf("MinAntennas default %d, want 3", cfg.MinAntennas)
	}
	if cfg.Dwell <= 0 || cfg.MaxReadings <= 0 {
		t.Errorf("unfilled defaults: %+v", cfg)
	}
}

// TestSessionizerCountsDistinct: channels and antennas count once each
// however often they repeat, antenna numbers outside 0–63 included.
func TestSessionizerCountsDistinct(t *testing.T) {
	z := NewSessionizer(SessionizerConfig{CoverageClose: 4, MinAntennas: 1})
	closed := feed(t, z, t0,
		mkRead("A", -1, 0), mkRead("A", 0, 0), mkRead("A", 63, 49),
		mkRead("A", 64, 49), mkRead("A", 70, 0), mkRead("A", 70, 1),
		mkRead("A", 0, 1),
		mkRead("A", 1<<40, 48), // the fourth channel closes the window
	)
	if len(closed) != 1 {
		t.Fatalf("got %d closed windows, want 1", len(closed))
	}
	if cw := closed[0]; cw.Channels != 4 || cw.Antennas != 6 {
		t.Fatalf("window counts %d channels and %d antennas, want 4 and 6", cw.Channels, cw.Antennas)
	}
}
