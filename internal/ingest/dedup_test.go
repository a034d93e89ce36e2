package ingest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func decodeReply(resp *http.Response, reply *wireReply) error {
	return json.NewDecoder(resp.Body).Decode(reply)
}

// positions drains a cursor over n lines: the positions it yields up
// to the first error, and that error.
func positions(sp *StreamPos, n int) ([]uint64, error) {
	var out []uint64
	for i := 0; i < n; i++ {
		p, err := sp.Next()
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
	return out, nil
}

func TestParseStreamPos(t *testing.T) {
	t.Run("contiguous", func(t *testing.T) {
		sp, err := ParseStreamPos("17")
		if err != nil {
			t.Fatal(err)
		}
		got, err := positions(sp, 3)
		if err != nil || !slices.Equal(got, []uint64{17, 18, 19}) {
			t.Fatalf("positions = %v, %v; want [17 18 19]", got, err)
		}
	})
	t.Run("explicit", func(t *testing.T) {
		sp, err := ParseStreamPos("17, 3,1")
		if err != nil {
			t.Fatal(err)
		}
		got, err := positions(sp, 4)
		if !slices.Equal(got, []uint64{17, 20, 21}) || err == nil {
			t.Fatalf("positions = %v, %v; want [17 20 21] and an error past the encoded count", got, err)
		}
	})
	t.Run("contiguous overflow", func(t *testing.T) {
		sp, err := ParseStreamPos("18446744073709551614")
		if err != nil {
			t.Fatal(err)
		}
		got, err := positions(sp, 3)
		if !slices.Equal(got, []uint64{math.MaxUint64 - 1, math.MaxUint64}) || err == nil {
			t.Fatalf("positions = %v, %v; want the last two positions and an error past 2^64-1", got, err)
		}
	})
	for _, bad := range []string{"", "0", "-1", "x", "3,0", "3,-2", "3,x", "3,", ",3", "3,,1",
		"18446744073709551615,1", "18446744073709551000,616", "1,9223372036854775808,9223372036854775808"} {
		if _, err := ParseStreamPos(bad); err == nil {
			t.Fatalf("ParseStreamPos(%q) should fail", bad)
		}
	}
}

// TestStreamPosCursorMatchesIndexedLookup holds the forward cursor to
// the indexed lookup it replaced — position i is the base plus the
// first i deltas, and an explicit header with fewer positions than
// lines fails at the first uncovered line — on random headers.
func TestStreamPosCursorMatchesIndexedLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		base := 1 + uint64(rng.Intn(1_000_000))
		deltas := make([]uint64, rng.Intn(40))
		header := strconv.FormatUint(base, 10)
		for k := range deltas {
			deltas[k] = 1 + uint64(rng.Intn(5000))
			header += "," + strconv.FormatUint(deltas[k], 10)
		}
		explicit := len(deltas) > 0
		// at is the indexed lookup: O(i) per line.
		at := func(i int) (uint64, error) {
			if !explicit {
				return base + uint64(i), nil
			}
			if i > len(deltas) {
				return 0, fmt.Errorf("stream position header covers %d lines, request has more", len(deltas)+1)
			}
			pos := base
			for _, d := range deltas[:i] {
				pos += d
			}
			return pos, nil
		}
		sp, err := ParseStreamPos(header)
		if err != nil {
			t.Fatalf("%q: %v", header, err)
		}
		lines := rng.Intn(len(deltas) + 4)
		for i := 0; i < lines; i++ {
			want, wantErr := at(i)
			got, gotErr := sp.Next()
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%q line %d: cursor %d, %v; lookup %d, %v", header, i, got, gotErr, want, wantErr)
			}
			if wantErr != nil {
				break
			}
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
		dups, _, err := d.admit(id, []uint64{pos}, func(int) (int, error) { return 1, nil })
		if err != nil {
			t.Fatal(err)
		}
		return dups == 1
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
	if dups, taken, err := d.admit("newest", []uint64{10}, func(int) (int, error) { return 0, ErrBusy }); dups != 0 || taken != 0 || !errors.Is(err, ErrBusy) {
		t.Fatalf("failed offer = %d, %d, %v; want 0, 0, ErrBusy", dups, taken, err)
	}
	if mark("newest", 10) {
		t.Fatal("a refused position was marked offered")
	}
}
