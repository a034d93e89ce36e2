package ingest

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzIngestNDJSON hammers the shared NDJSON report parser through the
// full HTTP ingest path. decodeReading is the single parser behind
// both POST /ingest and journal replay, so any input this fuzzer
// survives is also safe to re-read from a journal segment after a
// crash. The invariants: no panic, a well-formed HTTP status, and no
// non-finite values admitted past validation.
func FuzzIngestNDJSON(f *testing.F) {
	f.Add([]byte(`{"epc":"A","antenna":1,"channel":0,"freqHz":920e6,"phase":0.5,"rssi":-50}`))
	f.Add([]byte(`{"epc":"A","antenna":1,"channel":0}` + "\n" + `{"epc":"A","antenna":1,"channel":0}`)) // duplicates
	f.Add([]byte(`{"epc":"A","antenna":1,"chan`))                                                       // truncated mid-key
	f.Add([]byte(`{"epc":"A","channel":0,"phase":1e999}`))                                              // +Inf via overflow
	f.Add([]byte(`{"epc":"A","channel":0,"rssi":-1e999}`))                                              // -Inf
	f.Add([]byte(`{"epc":"` + strings.Repeat("Z", 4096) + `","channel":0}`))                            // giant EPC
	f.Add([]byte("\n\n\n"))                                                                             // blank lines only
	f.Add([]byte(`{"epc":"","channel":0}`))                                                             // empty EPC
	f.Add([]byte(`{"epc":"A","channel":-7}`))                                                           // channel out of range
	f.Add([]byte(`[1,2,3]`))                                                                            // wrong JSON shape

	d := NewDaemon(echoProc{}, Config{
		Sessionizer: SessionizerConfig{CoverageClose: 3, MinAntennas: 1, Dwell: time.Hour},
		QueueSize:   64,
	})
	f.Cleanup(func() { _ = d.Shutdown(context.Background()) })
	srv := httptest.NewServer(NewServer(d).Handler())
	f.Cleanup(srv.Close)

	f.Fuzz(func(t *testing.T, body []byte) {
		// Direct parser invariant: a decoded reading never carries
		// non-finite floats (journal replay depends on this).
		for _, line := range bytes.Split(body, []byte("\n")) {
			rd, err := decodeReading(bytes.TrimSpace(line))
			if err == nil && (!finite(rd.Phase) || !finite(rd.RSSI) || !finite(rd.FreqHz)) {
				t.Fatalf("decodeReading admitted non-finite values: %+v", rd)
			}
		}

		resp, err := http.Post(srv.URL+"/v1/ingest", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /ingest: %v", err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusBadRequest,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("unexpected /ingest status %d", resp.StatusCode)
		}
	})
}
