package ingest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rfprism/internal/sim"
)

// The journal is rfprismd's write-ahead log: every admitted report is
// appended (buffered, group-fsynced) before it enters the sessionizer,
// so a kill -9 loses at most the tail written since the last sync.
//
// Layout inside the journal directory:
//
//	journal-<firstSeq>.ndjson   report segments, one sim.Reading JSON
//	                            per line — the exact POST /ingest wire
//	                            format, so a segment can be re-fed to
//	                            any daemon and one fuzzer hardens both
//	                            parsers
//	results.ndjson              the emission ledger: one TagResult per
//	                            line, written with a single write(2)
//	                            per result so a line is either durable
//	                            or absent — recovery reads it to know
//	                            which windows were already served
//	quarantine/                 poisoned windows (solver panics), one
//	                            NDJSON reading file + one .panic.txt
//	                            per event, for offline reproduction
//
// Sequence numbers are positional: a report's seq is its segment's
// firstSeq plus its line index. That keeps the wire format free of
// envelope fields while still giving recovery a stable, monotonically
// increasing identity — a window is (EPC, seq of its first report),
// and replaying the same retained lines reconstructs the same keys.

// journalPrefix and journalExt frame segment file names:
// journal-%016d.ndjson, sortable lexically by first seq.
const (
	journalPrefix = "journal-"
	journalExt    = ".ndjson"
	// resultsName is the emission ledger file inside the journal dir.
	resultsName = "results.ndjson"
	// quarantineDirName holds poisoned windows.
	quarantineDirName = "quarantine"
)

// JournalConfig tunes the write-ahead journal. The zero value (plus a
// Dir) gets serving defaults.
type JournalConfig struct {
	// Dir is the journal directory, created if missing. Required.
	Dir string
	// SyncEvery is the group-fsync interval: appends are buffered and
	// synced together at most this far apart. Smaller = smaller crash
	// loss window, more fsyncs. Default 100 ms.
	SyncEvery time.Duration
	// SyncRecords additionally syncs after this many appends since the
	// last sync, giving a deterministic record-count bound on the loss
	// window (the crash harness relies on it). 0 disables the count
	// trigger.
	SyncRecords int
	// SegmentMaxRecords rotates the active segment after this many
	// lines. Default 4096.
	SegmentMaxRecords int
}

func (c *JournalConfig) defaults() {
	if c.SyncEvery <= 0 {
		c.SyncEvery = 100 * time.Millisecond
	}
	if c.SegmentMaxRecords <= 0 {
		c.SegmentMaxRecords = 4096
	}
}

// segment is one on-disk journal file.
type segment struct {
	firstSeq uint64
	records  int
	path     string
}

// Journal is the append-only report log plus the emission ledger. All
// methods are safe for concurrent use; the background syncer group-
// fsyncs the report stream every SyncEvery.
type Journal struct {
	cfg JournalConfig

	mu        sync.Mutex
	segments  []segment // closed segments, oldest first
	active    segment
	f         *os.File
	w         *bufio.Writer
	nextSeq   uint64
	syncedSeq uint64 // every seq < syncedSeq is durable
	unsynced  int    // appends since last sync
	results   *os.File
	closed    bool
	line      []byte // Append's encode buffer, reused under mu

	syncStop chan struct{}
	syncDone chan struct{}
}

// WindowKey identifies one sessionized window durably: the EPC plus
// the journal sequence number of the window's first report. Unlike the
// sessionizer's per-EPC display counter, it survives restarts —
// replaying the same retained journal lines reconstructs the same
// keys — which is what makes recovery idempotent.
type WindowKey struct {
	EPC      string
	FirstSeq uint64
}

// OpenJournal opens (or creates) the journal in cfg.Dir, scans the
// existing segments to restore the sequence counter, truncates a torn
// trailing line from the emission ledger, and starts the group-sync
// loop. A new active segment is always started: a segment that was
// being written when the process died may end in a torn line, and
// recycling its tail seq for fresh reports keeps positions unambiguous.
func OpenJournal(cfg JournalConfig) (*Journal, error) {
	cfg.defaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("ingest: journal needs a directory")
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, quarantineDirName), 0o755); err != nil {
		return nil, fmt.Errorf("ingest: journal dir: %w", err)
	}
	j := &Journal{
		cfg:      cfg,
		syncStop: make(chan struct{}),
		syncDone: make(chan struct{}),
	}
	segs, err := scanSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	j.segments = segs
	j.nextSeq = 0
	if n := len(segs); n > 0 {
		last := segs[n-1]
		j.nextSeq = last.firstSeq + uint64(last.records)
		if last.records == 0 {
			// The previous run died (or sat idle) with its active segment
			// holding no complete line, so nextSeq equals its firstSeq and
			// openActive below will reuse the very same path. Keeping the
			// stale entry would alias the new active segment inside
			// j.segments, and Retain — which trusts firstSeq+records —
			// would happily unlink the file fresh reports are going into.
			j.segments = segs[:n-1]
		}
	}
	j.syncedSeq = j.nextSeq // everything on disk at open is durable
	if err := j.openActive(); err != nil {
		return nil, err
	}
	results, err := openResultsLedger(filepath.Join(cfg.Dir, resultsName))
	if err != nil {
		j.f.Close()
		return nil, err
	}
	j.results = results
	go j.syncLoop()
	return j, nil
}

// scanSegments lists and counts the existing segment files, oldest
// first. Only complete lines count: a torn tail (killed mid-write)
// does not consume a sequence position.
func scanSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: journal dir: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, journalPrefix) || !strings.HasSuffix(name, journalExt) {
			continue
		}
		seqStr := strings.TrimSuffix(strings.TrimPrefix(name, journalPrefix), journalExt)
		firstSeq, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil {
			continue // not ours
		}
		path := filepath.Join(dir, name)
		records, err := countCompleteLines(path)
		if err != nil {
			return nil, err
		}
		segs = append(segs, segment{firstSeq: firstSeq, records: records, path: path})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].firstSeq < segs[b].firstSeq })
	return segs, nil
}

// countCompleteLines counts newline-terminated lines in path.
func countCompleteLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	buf := make([]byte, 64*1024)
	for {
		k, err := f.Read(buf)
		n += bytes.Count(buf[:k], []byte{'\n'})
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return 0, err
		}
	}
}

// openResultsLedger opens the emission ledger for appending, first
// truncating a torn trailing line: a result whose line was cut by the
// crash was never durably emitted, so recovery must re-solve it.
func openResultsLedger(path string) (*os.File, error) {
	if err := truncateTornTail(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ingest: results ledger: %w", err)
	}
	return f, nil
}

// truncateTornTail cuts path back to its last newline (no-op when the
// file is missing, empty, or newline-terminated).
func truncateTornTail(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if size == 0 {
		return nil
	}
	// Walk back from the end to the last newline.
	const chunk = 64 * 1024
	buf := make([]byte, chunk)
	end := size
	for end > 0 {
		start := end - chunk
		if start < 0 {
			start = 0
		}
		k, err := f.ReadAt(buf[:end-start], start)
		if err != nil && err != io.EOF {
			return err
		}
		if i := bytes.LastIndexByte(buf[:k], '\n'); i >= 0 {
			keep := start + int64(i) + 1
			if keep == size {
				return nil
			}
			return f.Truncate(keep)
		}
		end = start
	}
	return f.Truncate(0)
}

func (j *Journal) openActive() error {
	j.active = segment{
		firstSeq: j.nextSeq,
		path:     filepath.Join(j.cfg.Dir, fmt.Sprintf("%s%016d%s", journalPrefix, j.nextSeq, journalExt)),
	}
	// The name can collide with a crashed run's segment that holds only
	// a torn partial line (zero complete lines → same firstSeq). Cut
	// that tail first, or O_APPEND would glue the first fresh record
	// onto the torn bytes and corrupt it.
	if err := truncateTornTail(j.active.path); err != nil {
		return fmt.Errorf("ingest: journal segment: %w", err)
	}
	f, err := os.OpenFile(j.active.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: journal segment: %w", err)
	}
	j.f = f
	j.w = bufio.NewWriterSize(f, 64*1024)
	return nil
}

// Append journals one report and returns its sequence number. The
// write is buffered: durability lags by at most SyncEvery (or
// SyncRecords appends). rotated reports whether a new segment was
// started, the caller's cue to run retention.
func (j *Journal) Append(rd sim.Reading) (seq uint64, rotated bool, err error) {
	if !finite(rd.Phase) || !finite(rd.RSSI) || !finite(rd.FreqHz) {
		return 0, false, fmt.Errorf("ingest: journal encode: non-finite field in report")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, false, fmt.Errorf("ingest: journal closed")
	}
	j.line = append(sim.AppendReading(j.line[:0], rd), '\n')
	if _, err := j.w.Write(j.line); err != nil {
		return 0, false, fmt.Errorf("ingest: journal append: %w", err)
	}
	seq = j.nextSeq
	j.nextSeq++
	j.active.records++
	j.unsynced++
	if j.cfg.SyncRecords > 0 && j.unsynced >= j.cfg.SyncRecords {
		if err := j.syncLocked(); err != nil {
			return seq, false, err
		}
	}
	if j.active.records >= j.cfg.SegmentMaxRecords {
		if err := j.rotateLocked(); err != nil {
			return seq, false, err
		}
		rotated = true
	}
	return seq, rotated, nil
}

// SyncTo makes every report with sequence number ≤ seq durable,
// fsyncing only when the high-water mark has not yet passed it. This is
// the WAL rule behind the emission ledger: a window's result line may
// only be written after the reports it was computed from are on disk.
// Otherwise a crash could preserve the ledger line (its write is
// direct) while losing tail reports of that very window — recovery
// would then rebuild a shorter session under the same (EPC, FirstSeq)
// identity, close it later with fresh reports, and emit a duplicate
// key the ledger was supposed to rule out.
func (j *Journal) SyncTo(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("ingest: journal closed")
	}
	if j.syncedSeq > seq {
		return nil
	}
	return j.syncLocked()
}

// Sync flushes and fsyncs the active segment now.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("ingest: journal flush: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("ingest: journal fsync: %w", err)
	}
	j.syncedSeq = j.nextSeq
	j.unsynced = 0
	return nil
}

func (j *Journal) rotateLocked() error {
	if err := j.syncLocked(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("ingest: journal rotate: %w", err)
	}
	j.segments = append(j.segments, j.active)
	return j.openActive()
}

// NextSeq returns the sequence number the next report will get.
func (j *Journal) NextSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextSeq
}

// SyncedSeq returns the durable high-water mark: every report with
// seq < SyncedSeq survives a crash.
func (j *Journal) SyncedSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncedSeq
}

// Segments returns the number of on-disk segment files (closed +
// active).
func (j *Journal) Segments() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.segments) + 1
}

// Retain deletes closed segments every report of which has seq <
// minNeeded — i.e. segments that no open session, in-flight window or
// future replay still needs. The active segment is never deleted.
func (j *Journal) Retain(minNeeded uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	keep := j.segments[:0]
	var firstErr error
	for _, s := range j.segments {
		if s.firstSeq+uint64(s.records) <= minNeeded && s.path != j.active.path {
			if err := os.Remove(s.path); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("ingest: journal retention: %w", err)
			}
			continue
		}
		keep = append(keep, s)
	}
	j.segments = keep
	return firstErr
}

// syncLoop is the group-fsync ticker.
func (j *Journal) syncLoop() {
	defer close(j.syncDone)
	t := time.NewTicker(j.cfg.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = j.Sync()
		case <-j.syncStop:
			return
		}
	}
}

// Close stops the syncer, flushes and fsyncs the tail, and closes the
// files. Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		<-j.syncDone
		return nil
	}
	err := j.syncLocked()
	j.closed = true
	if cerr := j.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if cerr := j.results.Close(); err == nil && cerr != nil {
		err = cerr
	}
	j.mu.Unlock()
	close(j.syncStop)
	<-j.syncDone
	return err
}

// AppendResult records one emitted window in the emission ledger with
// a single write(2): after a SIGKILL the line is either fully present
// (the window was served; recovery suppresses it) or absent/torn (it
// was not; recovery re-solves it). There is no in-between, which is
// what rules out both duplicates and silent gaps across a crash.
func (j *Journal) AppendResult(tr TagResult) error {
	line, err := json.Marshal(tr)
	if err != nil {
		return fmt.Errorf("ingest: results ledger encode: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("ingest: journal closed")
	}
	if _, err := j.results.Write(line); err != nil {
		return fmt.Errorf("ingest: results ledger append: %w", err)
	}
	return nil
}

// EmittedSet reads the emission ledger and returns every durably
// emitted window keyed by identity, with the journal sequence number
// of the window's last report as the value. Presence answers "was this
// identity served"; the LastSeq value lets replay detect a session
// that outgrew the served window (the live run closed it by deadline,
// drain or breaker shed — none of which replay can reproduce
// positionally). Call before serving (the ledger was torn-tail-
// truncated at open).
func (j *Journal) EmittedSet() (map[WindowKey]uint64, error) {
	f, err := os.Open(filepath.Join(j.cfg.Dir, resultsName))
	if os.IsNotExist(err) {
		return map[WindowKey]uint64{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ingest: results ledger: %w", err)
	}
	defer f.Close()
	out := make(map[WindowKey]uint64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), MaxReportLine)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var tr TagResult
		if err := json.Unmarshal(raw, &tr); err != nil {
			continue // a pre-truncation torn line; never a fresh write
		}
		out[WindowKey{EPC: tr.EPC, FirstSeq: tr.FirstSeq}] = tr.LastSeq
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ingest: results ledger: %w", err)
	}
	return out, nil
}

// ReplayStats summarizes one journal replay.
type ReplayStats struct {
	// Reports is the number of valid journaled reports replayed.
	Reports int
	// Corrupt counts undecodable complete lines (skipped; each still
	// consumes its sequence position).
	Corrupt int
	// Torn counts cut-off trailing lines (at most one per segment that
	// was active at a kill; not durable, no sequence position).
	Torn int
	// Segments is the number of segment files read.
	Segments int
}

// Replay streams every retained journaled report, oldest first, to fn
// with its sequence number. Call after OpenJournal and before any
// Append: the scan covers the on-disk segments, and the freshly opened
// active segment is still empty. Corrupt lines are skipped and
// counted; a torn trailing line is tolerated (it was never durable).
func (j *Journal) Replay(fn func(seq uint64, rd sim.Reading) error) (ReplayStats, error) {
	j.mu.Lock()
	segs := append([]segment(nil), j.segments...)
	j.mu.Unlock()
	var st ReplayStats
	for _, s := range segs {
		if err := replaySegment(s, &st, fn); err != nil {
			return st, err
		}
		st.Segments++
	}
	return st, nil
}

func replaySegment(s segment, st *ReplayStats, fn func(uint64, sim.Reading) error) error {
	f, err := os.Open(s.path)
	if err != nil {
		return fmt.Errorf("ingest: journal replay: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), MaxReportLine)
	seq := s.firstSeq
	lines := 0
	for sc.Scan() {
		if lines >= s.records {
			// Past the counted complete lines: a torn tail.
			st.Torn++
			break
		}
		lines++
		raw := bytes.TrimSpace(sc.Bytes())
		rd, err := decodeReading(raw)
		if err != nil {
			st.Corrupt++
			seq++
			continue
		}
		if err := fn(seq, rd); err != nil {
			return err
		}
		st.Reports++
		seq++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("ingest: journal replay %s: %w", s.path, err)
	}
	return nil
}

// QuarantinePath names the quarantine artifacts for a poisoned window.
func (j *Journal) QuarantinePath(key WindowKey) string {
	return filepath.Join(j.cfg.Dir, quarantineDirName,
		fmt.Sprintf("%s-s%016d", sanitizeEPC(key.EPC), key.FirstSeq))
}

// Quarantine writes a poisoned window to the quarantine directory: the
// readings as ingest-format NDJSON (re-feedable for offline repro) and
// the panic report alongside as <name>.panic.txt.
func (j *Journal) Quarantine(key WindowKey, readings []sim.Reading, report string) error {
	base := j.QuarantinePath(key)
	// The readings passed ValidateReading on admission, so every
	// float is finite.
	var buf []byte
	for _, rd := range readings {
		buf = append(sim.AppendReading(buf, rd), '\n')
	}
	if err := os.WriteFile(base+journalExt, buf, 0o644); err != nil {
		return fmt.Errorf("ingest: quarantine: %w", err)
	}
	if err := os.WriteFile(base+".panic.txt", []byte(report), 0o644); err != nil {
		return fmt.Errorf("ingest: quarantine: %w", err)
	}
	return nil
}

// sanitizeEPC makes an EPC safe as a file-name fragment.
func sanitizeEPC(epc string) string {
	const max = 64
	var b strings.Builder
	for _, r := range epc {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
		if b.Len() >= max {
			break
		}
	}
	if b.Len() == 0 {
		return "tag"
	}
	return b.String()
}

// decodeReading parses one NDJSON report line with sim.ParseReading —
// shared by POST /v1/ingest and the journal replayer, so the ingest
// fuzzer hardens both. It rejects non-finite phase/RSSI/frequency
// values at the boundary; everything else is the sessionizer's
// validation job.
func decodeReading(raw []byte) (sim.Reading, error) {
	rd, err := sim.ParseReading(raw)
	if err != nil {
		return sim.Reading{}, err
	}
	if !finite(rd.Phase) || !finite(rd.RSSI) || !finite(rd.FreqHz) {
		return sim.Reading{}, fmt.Errorf("ingest: non-finite field in report")
	}
	return rd, nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
