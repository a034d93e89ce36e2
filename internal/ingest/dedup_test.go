package ingest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func decodeReply(resp *http.Response, reply *wireReply) error {
	return json.NewDecoder(resp.Body).Decode(reply)
}

func TestParseStreamPos(t *testing.T) {
	t.Run("contiguous", func(t *testing.T) {
		sp, err := ParseStreamPos("17")
		if err != nil {
			t.Fatal(err)
		}
		if n := sp.Lines(); n != -1 {
			t.Fatalf("contiguous Lines() = %d, want -1", n)
		}
		for i, want := range []uint64{17, 18, 19} {
			got, err := sp.At(i)
			if err != nil || got != want {
				t.Fatalf("At(%d) = %d, %v; want %d", i, got, err, want)
			}
		}
	})
	t.Run("explicit", func(t *testing.T) {
		sp, err := ParseStreamPos("17,3,1")
		if err != nil {
			t.Fatal(err)
		}
		if n := sp.Lines(); n != 3 {
			t.Fatalf("explicit Lines() = %d, want 3", n)
		}
		for i, want := range []uint64{17, 20, 21} {
			got, err := sp.At(i)
			if err != nil || got != want {
				t.Fatalf("At(%d) = %d, %v; want %d", i, got, err, want)
			}
		}
		if _, err := sp.At(3); err == nil {
			t.Fatal("At past the encoded count should error")
		}
	})
	for _, bad := range []string{"", "0", "-1", "x", "3,0", "3,-2", "3,x"} {
		if _, err := ParseStreamPos(bad); err == nil {
			t.Fatalf("ParseStreamPos(%q) should fail", bad)
		}
	}
}

// TestIngestStreamDedup: re-delivering stream positions already
// offered (a transport retry, a resume overshoot) counts accepted
// without duplicating anything downstream.
func TestIngestStreamDedup(t *testing.T) {
	proc := newGatedProc()
	close(proc.gate)
	sink := &captureSink{}
	d := NewDaemon(proc, Config{
		Sessionizer: SessionizerConfig{CoverageClose: 2, MinAntennas: 1},
	}, sink)
	defer d.Shutdown(context.Background())
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()

	lines := []string{readLine("A", 0, 0), readLine("A", 1, 1)}
	post := func(pos string) (int, wireReply) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/ingest",
			strings.NewReader(strings.Join(lines, "\n")))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(HeaderStream, "s1")
		req.Header.Set(HeaderStreamPos, pos)
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

	if status, reply := post("1"); status != http.StatusAccepted || reply.Accepted != 2 {
		t.Fatalf("first delivery: status %d, reply %+v", status, reply)
	}
	waitFor(t, 2*time.Second, "window to close", func() bool {
		_, ok := sink.latest("A")
		return ok
	})

	// The exact same sub-batch again (as a router retry would re-send
	// it): accepted, but skipped before the sessionizer.
	if status, reply := post("1"); status != http.StatusAccepted || reply.Accepted != 2 {
		t.Fatalf("re-delivery: status %d, reply %+v", status, reply)
	}
	if got := d.Metrics().ReportsDeduped.Load(); got != 2 {
		t.Fatalf("deduplicated = %d, want 2", got)
	}
	if got := d.Metrics().ReportsAccepted.Load(); got != 2 {
		t.Fatalf("offered = %d, want 2 (the retry must not re-offer)", got)
	}

	// Partial overlap via explicit positions: line 2 is new.
	lines = []string{readLine("A", 1, 1), readLine("A", 0, 7)}
	if status, reply := post("2,1"); status != http.StatusAccepted || reply.Accepted != 2 {
		t.Fatalf("overlap delivery: status %d, reply %+v", status, reply)
	}
	if got := d.Metrics().ReportsDeduped.Load(); got != 3 {
		t.Fatalf("deduplicated = %d, want 3", got)
	}
	if got := d.Metrics().ReportsAccepted.Load(); got != 3 {
		t.Fatalf("offered = %d, want 3", got)
	}
}

// TestIngestStreamDedupConcurrent: deliveries of one stream can
// overlap in time — a router sub-request parked by a partition is
// released on heal while its retry is in flight. Every position must
// still be offered exactly once.
func TestIngestStreamDedupConcurrent(t *testing.T) {
	proc := newGatedProc()
	close(proc.gate)
	d := NewDaemon(proc, Config{}, &captureSink{})
	defer d.Shutdown(context.Background())
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()

	const lines, deliveries = 300, 8
	var body []string
	for i := 0; i < lines; i++ {
		body = append(body, readLine(fmt.Sprintf("E%d", i), 0, 0))
	}
	var wg sync.WaitGroup
	for i := 0; i < deliveries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/ingest",
				strings.NewReader(strings.Join(body, "\n")))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set(HeaderStream, "s1")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			var reply wireReply
			err = decodeReply(resp, &reply)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusAccepted || reply.Accepted != lines {
				t.Errorf("delivery: status %d reply %+v (%v)", resp.StatusCode, reply, err)
			}
		}()
	}
	wg.Wait()
	if got := d.Metrics().ReportsAccepted.Load(); got != lines {
		t.Fatalf("offered = %d, want %d: overlapping deliveries duplicated reports", got, lines)
	}
	if got := d.Metrics().ReportsDeduped.Load(); got != lines*(deliveries-1) {
		t.Fatalf("deduplicated = %d, want %d", got, lines*(deliveries-1))
	}
}

// TestIngestStreamBadHeaders pins the 400 envelope for malformed
// stream metadata.
func TestIngestStreamBadHeaders(t *testing.T) {
	proc := newGatedProc()
	close(proc.gate)
	sink := &captureSink{}
	d := NewDaemon(proc, Config{
		Sessionizer: SessionizerConfig{CoverageClose: 2, MinAntennas: 1},
	}, sink)
	defer d.Shutdown(context.Background())
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()

	for _, tc := range []struct {
		name, stream, pos string
	}{
		{"oversized stream id", strings.Repeat("x", MaxStreamID+1), "1"},
		{"zero position", "s", "0"},
		{"garbage position", "s", "nope"},
		{"short explicit header", "s", "1,1"}, // 2 positions for 3 lines
	} {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/ingest",
			ndjsonBody(readLine("A", 0, 0), readLine("A", 1, 1), readLine("A", 2, 2)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(HeaderStream, tc.stream)
		req.Header.Set(HeaderStreamPos, tc.pos)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var reply wireReply
		if err := decodeReply(resp, &reply); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || reply.Code != CodeBadParam {
			t.Fatalf("%s: status %d code %q, want 400 %q", tc.name, resp.StatusCode, reply.Code, CodeBadParam)
		}
	}
}

// TestIngestLineTooLarge pins the typed 413: an NDJSON line past the
// scanner limit refuses with report_too_large, not a generic 400.
func TestIngestLineTooLarge(t *testing.T) {
	proc := newGatedProc()
	close(proc.gate)
	sink := &captureSink{}
	d := NewDaemon(proc, Config{
		Sessionizer: SessionizerConfig{CoverageClose: 2, MinAntennas: 1},
	}, sink)
	defer d.Shutdown(context.Background())
	srv := httptest.NewServer(NewServer(d).Handler())
	defer srv.Close()

	huge := readLine("A", 0, 0) + strings.Repeat(" ", MaxReportLine)
	resp, reply := postIngest(t, srv, ndjsonBody(readLine("A", 1, 1), huge))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if reply.Code != CodeReportTooLarge {
		t.Fatalf("code %q, want %q", reply.Code, CodeReportTooLarge)
	}
	if reply.Accepted != 1 {
		t.Fatalf("accepted %d, want 1 (the line before the oversized one)", reply.Accepted)
	}
}

// TestStreamDedupEviction: TTL expiry and the stream cap both evict.
func TestStreamDedupEviction(t *testing.T) {
	now := time.Unix(0, 0)
	d := newStreamDedup(func() time.Time { return now })
	mark := func(id string, pos uint64) bool {
		dup, err := d.offer(id, pos, func() error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return dup
	}
	for i := 0; i < dedupMaxStreams; i++ {
		mark(fmt.Sprintf("s%d", i), 1)
	}
	if got := d.streams(); got != dedupMaxStreams {
		t.Fatalf("streams = %d, want %d", got, dedupMaxStreams)
	}
	// At the cap with nothing expired: the oldest single stream goes.
	now = now.Add(time.Minute)
	mark("fresh", 1)
	if got := d.streams(); got != dedupMaxStreams {
		t.Fatalf("after cap eviction: streams = %d, want %d", got, dedupMaxStreams)
	}
	// Everything older than the TTL goes in one sweep.
	now = now.Add(dedupTTL + time.Minute)
	mark("newest", 1)
	if got := d.streams(); got > 2 {
		t.Fatalf("after TTL sweep: streams = %d, want <= 2", got)
	}
	// Marks never regress.
	mark("newest", 9)
	if !mark("newest", 4) || !mark("newest", 9) {
		t.Fatal("a position at or below the mark was offered again")
	}
	// A failed offer leaves the mark where it was.
	if dup, err := d.offer("newest", 10, func() error { return ErrBusy }); dup || !errors.Is(err, ErrBusy) {
		t.Fatalf("failed offer = %v, %v; want not dup, ErrBusy", dup, err)
	}
	if mark("newest", 10) {
		t.Fatal("a refused position was marked offered")
	}
}
