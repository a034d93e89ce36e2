package main

import (
	"testing"
	"time"

	"rfprism/internal/ingest"
)

// TestOracleMatchesSessionizer replays every workload's stream, at a
// small size, through both the oracle and ingest.Sessionizer and
// requires the same windows: identity, span, size, coverage, whether
// each reaches the solver, and which ones close at drain.
func TestOracleMatchesSessionizer(t *testing.T) {
	for _, name := range []string{"portal", "shelf", "dashboard"} {
		t.Run(name, func(t *testing.T) {
			w, err := generate(name, 7, 2)
			if err != nil {
				t.Fatal(err)
			}
			o := newOracle()
			z := ingest.NewSessionizer(ingest.SessionizerConfig{CoverageClose: coverageClose, MinAntennas: minAntennas})
			now := time.Unix(0, 0)
			var got []ingest.ClosedWindow
			for i, rd := range w.readings {
				o.feed(i, rd.EPC, rd.Antenna, rd.Channel)
				cw, closed, err := z.AddSeq(rd, uint64(i+1), now)
				if err != nil {
					t.Fatalf("report %d: %v", i, err)
				}
				if closed {
					got = append(got, cw)
				}
			}
			o.drain()
			got = append(got, z.Drain(now)...)

			want := make(map[winKey]expWindow)
			discarded := 0
			for _, ew := range o.windows {
				if ew.emitted {
					want[winKey{ew.epc, ew.seq}] = ew
				} else {
					discarded++
				}
			}
			if len(got) != len(want) {
				t.Fatalf("sessionizer emitted %d windows, oracle predicts %d", len(got), len(want))
			}
			if z.Discarded() != discarded {
				t.Errorf("sessionizer discarded %d windows, oracle predicts %d", z.Discarded(), discarded)
			}
			tails := 0
			for _, cw := range got {
				ew, ok := want[winKey{cw.EPC, cw.Seq}]
				if !ok {
					t.Fatalf("window %s/%d not predicted", cw.EPC, cw.Seq)
				}
				if int(cw.FirstSeq)-1 != ew.first || int(cw.LastSeq)-1 != ew.last || len(cw.Readings) != ew.readings ||
					cw.Channels != ew.channels || cw.Antennas != ew.antennas {
					t.Errorf("window %s/%d: sessionizer [%d,%d] %d readings %d ch %d ant, oracle [%d,%d] %d readings %d ch %d ant",
						cw.EPC, cw.Seq, cw.FirstSeq-1, cw.LastSeq-1, len(cw.Readings), cw.Channels, cw.Antennas,
						ew.first, ew.last, ew.readings, ew.channels, ew.antennas)
				}
				if (cw.Reason == ingest.CloseDrain) != ew.tail {
					t.Errorf("window %s/%d: close reason %v, oracle tail=%v", cw.EPC, cw.Seq, cw.Reason, ew.tail)
				}
				if ew.tail {
					tails++
				}
			}
			wantTails := 0
			if name == "portal" {
				wantTails = 3 * portalGroup // warm-up round plus two timed rounds
			}
			if tails != wantTails {
				t.Errorf("%d departure tails, want %d", tails, wantTails)
			}
		})
	}
}
