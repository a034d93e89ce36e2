package ingest

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rfprism/internal/geom"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

func testJournal(t *testing.T, cfg JournalConfig) *Journal {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.SyncEvery == 0 {
		cfg.SyncEvery = time.Hour // tests drive syncs explicitly
	}
	j, err := OpenJournal(cfg)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func testReading(epc string, ch int) sim.Reading {
	return sim.Reading{EPC: epc, Antenna: 1, Channel: ch, FreqHz: 920e6, Phase: 1.25, RSSI: -52}
}

// TestJournalSegmentBytesAreMarshalLines: a seeded stream journaled
// through Append lands on disk as the json.Marshal line of each
// report, in order, each followed by a newline — the same bytes the
// journal wrote when it encoded through encoding/json.
func TestJournalSegmentBytesAreMarshalLines(t *testing.T) {
	scene, err := sim.NewScene(sim.PaperAntennas2D(nil), rf.CleanSpace(), sim.DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	none, err := rf.MaterialByName("none")
	if err != nil {
		t.Fatal(err)
	}
	var tracked []sim.TrackedTag
	for i, epc := range []string{"urn:epc:S001", `odd<>&"\`, ""} {
		tracked = append(tracked, sim.TrackedTag{
			Tag:    scene.NewTag(epc),
			Motion: scene.Place(geom.Vec3{X: 0.5 + 0.4*float64(i), Y: 1.2}, 0.3*float64(i), none),
		})
	}
	stream, err := scene.CollectStream(tracked, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	j := testJournal(t, JournalConfig{Dir: dir, SegmentMaxRecords: 1 << 20})
	var want bytes.Buffer
	for _, rd := range stream {
		line, err := json.Marshal(rd)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
		want.WriteByte('\n')
		if _, _, err := j.Append(rd); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, journalPrefix+"*"+journalExt))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (%v), want one", segs, err)
	}
	got, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("segment (%d bytes) differs from the json.Marshal lines (%d bytes)", len(got), want.Len())
	}
}

// TestJournalAppendAllocs: an append that neither syncs nor rotates
// allocates nothing.
func TestJournalAppendAllocs(t *testing.T) {
	j := testJournal(t, JournalConfig{SegmentMaxRecords: 1 << 20})
	rd := testReading("urn:epc:S001", 7)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := j.Append(rd); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Journal.Append: %v allocations per call, want 0", allocs)
	}
}

// TestJournalAppendReplayRoundTrip: appended reports come back from
// Replay in order with positional sequence numbers, across segment
// rotations.
func TestJournalAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := testJournal(t, JournalConfig{Dir: dir, SegmentMaxRecords: 4})
	const n = 11
	for i := 0; i < n; i++ {
		seq, _, err := j.Append(testReading("epc-1", i))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("Append %d got seq %d", i, seq)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the sequence counter continues where the disk left off,
	// and replay yields every report with its original seq.
	j2 := testJournal(t, JournalConfig{Dir: dir})
	if got := j2.NextSeq(); got != n {
		t.Fatalf("reopened NextSeq = %d, want %d", got, n)
	}
	var seqs []uint64
	st, err := j2.Replay(func(seq uint64, rd sim.Reading) error {
		if rd.EPC != "epc-1" || rd.Channel != int(seq) {
			t.Errorf("seq %d: got %+v", seq, rd)
		}
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if st.Reports != n || st.Corrupt != 0 || st.Torn != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("replay order broken: %v", seqs)
		}
	}
}

// TestJournalSyncRecordsBoundary: the record-count trigger bounds the
// unsynced tail deterministically.
func TestJournalSyncRecordsBoundary(t *testing.T) {
	j := testJournal(t, JournalConfig{Dir: t.TempDir(), SyncRecords: 3})
	for i := 0; i < 7; i++ {
		if _, _, err := j.Append(testReading("e", i)); err != nil {
			t.Fatal(err)
		}
	}
	// 7 appends with a 3-record trigger: synced at 3 and 6.
	if got := j.SyncedSeq(); got != 6 {
		t.Fatalf("SyncedSeq = %d, want 6", got)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := j.SyncedSeq(); got != 7 {
		t.Fatalf("after Sync, SyncedSeq = %d, want 7", got)
	}
}

// TestJournalSyncTo: the WAL rule primitive — syncing "up to" a seq
// fsyncs when the durable mark has not passed it and no-ops when it
// has.
func TestJournalSyncTo(t *testing.T) {
	j := testJournal(t, JournalConfig{Dir: t.TempDir(), SyncEvery: time.Hour})
	for i := 0; i < 5; i++ {
		if _, _, err := j.Append(testReading("e", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.SyncedSeq(); got != 0 {
		t.Fatalf("pre: SyncedSeq = %d, want 0", got)
	}
	if err := j.SyncTo(2); err != nil {
		t.Fatal(err)
	}
	// syncLocked flushes everything buffered, not just up to the mark.
	if got := j.SyncedSeq(); got != 5 {
		t.Fatalf("after SyncTo(2): SyncedSeq = %d, want 5", got)
	}
	if err := j.SyncTo(3); err != nil { // already durable: no-op
		t.Fatal(err)
	}
	if got := j.SyncedSeq(); got != 5 {
		t.Fatalf("after no-op SyncTo: SyncedSeq = %d, want 5", got)
	}
}

// TestJournalRetention: Retain deletes exactly the closed segments
// wholly below the needed mark, never the active one.
func TestJournalRetention(t *testing.T) {
	dir := t.TempDir()
	j := testJournal(t, JournalConfig{Dir: dir, SegmentMaxRecords: 2})
	for i := 0; i < 7; i++ { // segments [0,1] [2,3] [4,5], active [6]
		if _, _, err := j.Append(testReading("e", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Retain(4); err != nil {
		t.Fatal(err)
	}
	// Segments [0,1] and [2,3] are wholly below 4 → gone; [4,5] stays.
	if got := j.Segments(); got != 2 {
		t.Fatalf("after Retain(4): %d segments, want 2", got)
	}
	st, err := j.Replay(func(seq uint64, rd sim.Reading) error {
		if seq < 4 {
			t.Errorf("replayed deleted seq %d", seq)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reports != 2 {
		t.Fatalf("replayed %d reports after retention, want 2", st.Reports)
	}
}

// TestJournalTornTailTolerated: a segment cut mid-line (the kill -9
// shape) replays its complete lines and recycles the torn position for
// the next report after reopen.
func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	j := testJournal(t, JournalConfig{Dir: dir})
	for i := 0; i < 3; i++ {
		if _, _, err := j.Append(testReading("e", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: chop the last line in half.
	seg := filepath.Join(dir, "journal-0000000000000000.ndjson")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, raw[:len(raw)-15], 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := testJournal(t, JournalConfig{Dir: dir})
	if got := j2.NextSeq(); got != 2 {
		t.Fatalf("NextSeq after torn tail = %d, want 2 (torn position recycled)", got)
	}
	st, err := j2.Replay(func(uint64, sim.Reading) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Reports != 2 || st.Torn != 1 {
		t.Fatalf("stats = %+v, want 2 reports / 1 torn", st)
	}
}

// TestJournalCorruptLineSkipped: a complete-but-undecodable line is
// skipped, counted, and still consumes its sequence position so later
// reports keep their identities.
func TestJournalCorruptLineSkipped(t *testing.T) {
	dir := t.TempDir()
	j := testJournal(t, JournalConfig{Dir: dir})
	if _, _, err := j.Append(testReading("e", 0)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "journal-0000000000000000.ndjson")
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"epc\": garbage\n{\"epc\":\"e\",\"antenna\":1,\"channel\":5,\"freqHz\":920e6,\"phase\":1,\"rssi\":-50,\"t\":0}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := testJournal(t, JournalConfig{Dir: dir})
	var got []uint64
	st, err := j2.Replay(func(seq uint64, rd sim.Reading) error {
		got = append(got, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reports != 2 || st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want 2 reports / 1 corrupt", st)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("seqs = %v, want [0 2] (corrupt line keeps position 1)", got)
	}
}

// TestResultsLedgerTornTailTruncated: a torn trailing result line is
// removed at open (the window was never durably emitted), complete
// lines survive, and EmittedSet keys on (EPC, FirstSeq).
func TestResultsLedgerTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j := testJournal(t, JournalConfig{Dir: dir})
	if err := j.AppendResult(TagResult{EPC: "e1", FirstSeq: 0, LastSeq: 7}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendResult(TagResult{EPC: "e1", FirstSeq: 40, LastSeq: 44}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	ledger := filepath.Join(dir, resultsName)
	raw, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ledger, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := testJournal(t, JournalConfig{Dir: dir})
	emitted, err := j2.EmittedSet()
	if err != nil {
		t.Fatal(err)
	}
	last, ok := emitted[WindowKey{EPC: "e1", FirstSeq: 0}]
	if len(emitted) != 1 || !ok || last != 7 {
		t.Fatalf("emitted = %v, want only (e1, 0) with last seq 7", emitted)
	}
	// The ledger must have been physically truncated so fresh appends
	// don't splice onto the torn fragment.
	raw2, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if raw2[len(raw2)-1] != '\n' {
		t.Fatal("ledger not newline-terminated after truncation")
	}
}

// TestJournalEmptyActiveSegmentNotRetained: a run that dies (or just
// closes) before its active segment gets a single complete line leaves
// a zero-record file whose name the next run's active segment reuses.
// The reopened journal must not keep a stale duplicate entry for that
// path, or Retain would unlink the live active segment out from under
// fresh appends.
func TestJournalEmptyActiveSegmentNotRetained(t *testing.T) {
	dir := t.TempDir()
	j1 := testJournal(t, JournalConfig{Dir: dir})
	if err := j1.Close(); err != nil { // leaves journal-0 with 0 records
		t.Fatal(err)
	}

	j2 := testJournal(t, JournalConfig{Dir: dir})
	if got := j2.NextSeq(); got != 0 {
		t.Fatalf("NextSeq after empty reopen = %d, want 0", got)
	}
	if got := j2.Segments(); got != 1 {
		t.Fatalf("segments after empty reopen = %d, want 1 (no stale alias)", got)
	}
	const n = 3
	for i := 0; i < n; i++ {
		if _, _, err := j2.Append(testReading("e", i)); err != nil {
			t.Fatal(err)
		}
	}
	// With the stale zero-record entry still aliased, firstSeq+0 <=
	// minNeeded holds trivially and this deletes the live active file.
	if err := j2.Retain(j2.NextSeq()); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	j3 := testJournal(t, JournalConfig{Dir: dir})
	if got := j3.NextSeq(); got != n {
		t.Fatalf("NextSeq after retention = %d, want %d (active segment deleted?)", got, n)
	}
	st, err := j3.Replay(func(uint64, sim.Reading) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Reports != n {
		t.Fatalf("replayed %d reports, want %d", st.Reports, n)
	}
}

// TestJournalEmptyActiveAfterRotation: the same shape right after a
// rotation — the closed, record-bearing segment must survive retention
// that the stale empty-active entry would otherwise licence.
func TestJournalEmptyActiveAfterRotation(t *testing.T) {
	dir := t.TempDir()
	j1 := testJournal(t, JournalConfig{Dir: dir, SegmentMaxRecords: 2})
	for i := 0; i < 2; i++ { // fills segment [0,1], rotates to empty journal-2
		if _, _, err := j1.Append(testReading("e", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := testJournal(t, JournalConfig{Dir: dir, SegmentMaxRecords: 2})
	if got := j2.NextSeq(); got != 2 {
		t.Fatalf("NextSeq = %d, want 2", got)
	}
	if _, _, err := j2.Append(testReading("e", 2)); err != nil {
		t.Fatal(err)
	}
	// Nothing below seq 2 is needed: segment [0,1] goes, but the active
	// segment holding seq 2 must not be touched by its stale alias.
	if err := j2.Retain(2); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	j3 := testJournal(t, JournalConfig{Dir: dir})
	var seqs []uint64
	st, err := j3.Replay(func(seq uint64, _ sim.Reading) error {
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reports != 1 || len(seqs) != 1 || seqs[0] != 2 {
		t.Fatalf("replay after rotation+retention = %+v seqs %v, want just seq 2", st, seqs)
	}
}

// TestJournalQuarantine: a poisoned window lands as re-feedable NDJSON
// plus the panic report.
func TestJournalQuarantine(t *testing.T) {
	dir := t.TempDir()
	j := testJournal(t, JournalConfig{Dir: dir})
	key := WindowKey{EPC: "bad/epc", FirstSeq: 7}
	readings := []sim.Reading{testReading("bad/epc", 3)}
	if err := j.Quarantine(key, readings, "panic: boom\nstack..."); err != nil {
		t.Fatal(err)
	}
	base := j.QuarantinePath(key)
	raw, err := os.ReadFile(base + ".ndjson")
	if err != nil {
		t.Fatalf("quarantined readings: %v", err)
	}
	if rd, err := decodeReading(raw[:len(raw)-1]); err != nil || rd.Channel != 3 {
		t.Fatalf("quarantined line not re-feedable: %v %+v", err, rd)
	}
	if rep, err := os.ReadFile(base + ".panic.txt"); err != nil || len(rep) == 0 {
		t.Fatalf("panic report: %v", err)
	}
}
