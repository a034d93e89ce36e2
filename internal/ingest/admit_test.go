package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// batchBody builds an NDJSON body of n report lines with blank lines
// mixed in, the line at 1-based position bad (if any) replaced by
// badLine. It returns the body and the request line number of every
// report line.
func batchBody(n, bad int, badLine string) (string, []int) {
	var sb strings.Builder
	var lineNo []int
	line := 0
	for i := 1; i <= n; i++ {
		if i%3 == 0 {
			sb.WriteString("\n  \n") // two blank lines
			line += 2
		}
		l := readLine(fmt.Sprintf("E%d", i%7), i%4, 0)
		if i == bad {
			l = badLine
		}
		sb.WriteString(l)
		sb.WriteByte('\n')
		line++
		lineNo = append(lineNo, line)
	}
	return sb.String(), lineNo
}

func postStream(t *testing.T, srv *httptest.Server, body, stream, pos string) (int, wireReply) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/ingest", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if stream != "" {
		req.Header.Set(HeaderStream, stream)
	}
	if pos != "" {
		req.Header.Set(HeaderStreamPos, pos)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply wireReply
	if err := decodeReply(resp, &reply); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply
}

// TestIngestBatchBadLineEnvelope: a bad report line on either side of
// a batch boundary gets the envelope line-by-line admission gave —
// every line before it accepted, "line" naming it among blank lines,
// the message quoting its error — and the daemon holds exactly the
// accepted lines.
func TestIngestBatchBadLineEnvelope(t *testing.T) {
	invalid := readLine("E", 0, rf.NumChannels) // decodes, fails validation
	invalidRd, err := decodeReading([]byte(invalid))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		name, line string
		err        error
	}{
		{"malformed", `{"epc":"E","channel":`, decodeErr(`{"epc":"E","channel":`)},
		{"invalid", invalid, ValidateReading(invalidRd)},
	} {
		for _, p := range []int{1, 255, 256, 257, 513} {
			for _, stream := range []string{"", "s"} {
				proc := newGatedProc()
				close(proc.gate)
				d := NewDaemon(proc, Config{}, &captureSink{})
				srv := httptest.NewServer(NewServer(d).Handler())
				body, lineNo := batchBody(600, p, bad.line)
				status, reply := postStream(t, srv, body, stream, "")
				want := fmt.Sprintf("line %d: %v", lineNo[p-1], bad.err)
				if status != http.StatusBadRequest || reply.Code != CodeBadReport ||
					reply.Accepted != p-1 || reply.Line != lineNo[p-1] || reply.Error != want {
					t.Errorf("%s line at %d, stream %q: status %d reply %+v; want 400 %s accepted %d line %d %q",
						bad.name, p, stream, status, reply, CodeBadReport, p-1, lineNo[p-1], want)
				}
				if got := d.Metrics().ReportsAccepted.Load(); got != int64(p-1) {
					t.Errorf("%s line at %d, stream %q: daemon took %d reports, want %d", bad.name, p, stream, got, p-1)
				}
				srv.Close()
				d.Shutdown(context.Background())
			}
		}
	}
}

func decodeErr(line string) error {
	_, err := decodeReading([]byte(line))
	return err
}

// TestIngestBatchBusyMidBatch: a full window queue in the middle of a
// batch refuses exactly past the prefix the daemon took, and the
// stream mark stops there, so a retry of the same delivery offers only
// the rest.
func TestIngestBatchBusyMidBatch(t *testing.T) {
	for _, closeAt := range []int{150, 300} {
		proc := newGatedProc()
		d := NewDaemon(proc, Config{
			QueueSize:   1,
			Sessionizer: SessionizerConfig{CoverageClose: 2, MinAntennas: 1},
		}, &captureSink{})
		srv := httptest.NewServer(NewServer(d).Handler())
		// Every line is a distinct one-channel tag, except that lines
		// closeAt-1 and closeAt complete a window, which fills the
		// one-slot queue the gated solver does not drain.
		var lines []string
		for i := 1; i <= 400; i++ {
			switch i {
			case closeAt - 1:
				lines = append(lines, readLine("W", 0, 0))
			case closeAt:
				lines = append(lines, readLine("W", 1, 1))
			default:
				lines = append(lines, readLine(fmt.Sprintf("E%d", i), 0, 0))
			}
		}
		body := strings.Join(lines, "\n")
		status, reply := postStream(t, srv, body, "s", "")
		if status != http.StatusTooManyRequests || reply.Code != CodeBackpressure ||
			reply.Accepted != closeAt || reply.Line != closeAt+1 {
			t.Fatalf("window at %d: status %d reply %+v; want 429 accepted %d line %d", closeAt, status, reply, closeAt, closeAt+1)
		}
		if got := d.Metrics().ReportsAccepted.Load(); got != int64(closeAt) {
			t.Fatalf("window at %d: daemon took %d reports, want %d", closeAt, got, closeAt)
		}
		close(proc.gate)
		waitFor(t, 2*time.Second, "queue to drain", func() bool { return d.Gauges().QueueDepth == 0 })
		status, reply = postStream(t, srv, body, "s", "")
		if status != http.StatusAccepted || reply.Accepted != len(lines) {
			t.Fatalf("window at %d: retry status %d reply %+v", closeAt, status, reply)
		}
		if got := d.Metrics().ReportsDeduped.Load(); got != int64(closeAt) {
			t.Fatalf("window at %d: retry deduplicated %d, want %d", closeAt, got, closeAt)
		}
		if got := d.Metrics().ReportsAccepted.Load(); got != int64(len(lines)) {
			t.Fatalf("window at %d: daemon took %d reports in all, want %d", closeAt, got, len(lines))
		}
		srv.Close()
		d.Shutdown(context.Background())
	}
}

// TestIngestBatchDedupPrefix: when the first k positions of a delivery
// are at or below the stream's mark, only the rest are offered and
// ReportsDeduped counts k.
func TestIngestBatchDedupPrefix(t *testing.T) {
	proc := newGatedProc()
	close(proc.gate)
	d := NewDaemon(proc, Config{}, &captureSink{})
	defer d.Shutdown(context.Background())
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()

	body := func(from, n int) string {
		var lines []string
		for i := from; i < from+n; i++ {
			lines = append(lines, readLine(fmt.Sprintf("E%d", i), 0, 0))
		}
		return strings.Join(lines, "\n\n")
	}
	if status, reply := postStream(t, srv, body(1, 300), "s", "1"); status != http.StatusAccepted || reply.Accepted != 300 {
		t.Fatalf("first delivery: status %d reply %+v", status, reply)
	}
	// Positions 298, 299, 300 (k = 3) are at or below the mark; 301 to
	// 600 are new.
	pos := "298" + strings.Repeat(",1", 302)
	if status, reply := postStream(t, srv, body(298, 303), "s", pos); status != http.StatusAccepted || reply.Accepted != 303 {
		t.Fatalf("overlapping delivery: status %d reply %+v", status, reply)
	}
	if got := d.Metrics().ReportsDeduped.Load(); got != 3 {
		t.Fatalf("deduplicated %d, want 3", got)
	}
	if got := d.Metrics().ReportsAccepted.Load(); got != 600 {
		t.Fatalf("offered %d, want 600", got)
	}
}

// TestIngestJournalBytesAreMarshalLines: whatever form a posted line
// takes — the canonical one or any other JSON the codec falls back
// on — the journal holds json.Marshal of the reading it decodes to.
func TestIngestJournalBytesAreMarshalLines(t *testing.T) {
	dir := t.TempDir()
	j := testJournal(t, JournalConfig{Dir: dir, SegmentMaxRecords: 1 << 20})
	proc := newGatedProc()
	close(proc.gate)
	d := NewDaemon(proc, Config{Journal: j}, &captureSink{})
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()

	lines := []string{
		`{"epc":"urn:epc:S001","antenna":3,"channel":49,"freqHz":927250000,"phase":4.71238898,"rssi":-61.5,"t":123456789}`,
		`{"epc":"A","antenna":1,"channel":0,"freqHz":9.0225E8,"phase":0.50,"rssi":-50.000,"t":1}`,
		`{ "rssi" : -0, "phase":1.0000000000000000000001, "channel":2, "EPC":"B" }`,
		`{"epc":"odd<>&\"\\","channel":3,"phase":123456789012345678901234567890,"rssi":1e-7}`,
		`{"epc":"C","channel":4,"phase":0.00000000000000000000000123,"rssi":-9007199254740993,"freqHz":1e22}`,
		`{"epc":"D","antenna":70,"channel":49,"phase":-0.0,"rssi":-0.05,"freqHz":902750000.0000001}`,
	}
	var want bytes.Buffer
	for _, l := range lines {
		var rd sim.Reading
		if err := json.Unmarshal([]byte(l), &rd); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rd)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(b)
		want.WriteByte('\n')
	}
	if status, reply := postStream(t, srv, strings.Join(lines, "\n"), "s", ""); status != http.StatusAccepted || reply.Accepted != len(lines) {
		t.Fatalf("status %d reply %+v", status, reply)
	}
	if err := d.Shutdown(context.Background()); err != nil {
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
		t.Fatalf("journal\n%s\nwant the json.Marshal lines\n%s", got, want.Bytes())
	}
}
