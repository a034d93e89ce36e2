package main

import "math/bits"

// Window oracle.
//
// The oracle derives the windows a stream must produce from the
// coverage-close rule alone, written here from its specification
// rather than borrowed from ingest.Sessionizer:
//
//   - each EPC has at most one open window; its first report opens it;
//   - the report that brings the window to coverageClose distinct
//     channels closes it;
//   - a window still open when the stream ends is closed by the
//     deadline sweep or the shutdown drain (a "tail");
//   - every close advances the EPC's window sequence number, but only
//     windows that heard at least minAntennas distinct antennas reach
//     the solver ("emitted").
//
// oracle_test.go checks the oracle against ingest.Sessionizer on every
// workload's stream.

// expWindow is one window the oracle predicts.
type expWindow struct {
	epc         string
	seq         int
	first, last int // stream indices of the first and last report
	readings    int
	channels    int
	antennas    int
	emitted     bool // reaches the solver
	tail        bool // closed by deadline or drain, not coverage
}

type openWindow struct {
	first, last int
	readings    int
	channels    uint64
	antennas    uint64
}

type oracle struct {
	open    map[string]*openWindow
	seqs    map[string]int
	windows []expWindow
}

func newOracle() *oracle {
	return &oracle{open: make(map[string]*openWindow), seqs: make(map[string]int)}
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

// feed adds report i of the stream.
func (o *oracle) feed(i int, epc string, antenna, channel int) {
	w := o.open[epc]
	if w == nil {
		w = &openWindow{first: i}
		o.open[epc] = w
	}
	w.last = i
	w.readings++
	w.channels |= 1 << uint(channel&63)
	w.antennas |= 1 << uint(antenna&63)
	if popcount(w.channels) >= coverageClose {
		o.close(epc, w, false)
	}
}

// drain closes every window still open, in EPC order.
func (o *oracle) drain() {
	for epc, w := range o.open {
		o.close(epc, w, true)
	}
}

func (o *oracle) close(epc string, w *openWindow, tail bool) {
	delete(o.open, epc)
	seq := o.seqs[epc]
	o.seqs[epc] = seq + 1
	o.windows = append(o.windows, expWindow{
		epc: epc, seq: seq, first: w.first, last: w.last, readings: w.readings,
		channels: popcount(w.channels), antennas: popcount(w.antennas),
		emitted: popcount(w.antennas) >= minAntennas, tail: tail,
	})
}
