package ingest

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// benchLines is the report lines of one shelf-like POST: tags cycling
// through the 50 channels on 4 antennas, each line in the canonical
// form with full-precision phase and RSSI.
func benchLines(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	var body []byte
	for i := 0; i < n; i++ {
		ch := (i / 10) % rf.NumChannels
		f, _ := rf.ChannelFreq(ch)
		body = sim.AppendReading(body, sim.Reading{
			EPC: fmt.Sprintf("urn:epc:S%03d", i%10), Antenna: i % 4, Channel: ch, FreqHz: f,
			Phase: rng.Float64() * 2 * math.Pi, RSSI: -40 - 30*rng.Float64(), T: time.Duration(i) * time.Millisecond,
		})
		body = append(body, '\n')
	}
	return body
}

// BenchmarkShardIngest posts one 512-line explicit-position request
// per iteration through Server into a journaled daemon.
func BenchmarkShardIngest(b *testing.B) {
	const lines = 512
	proc := newGatedProc()
	close(proc.gate)
	j, err := OpenJournal(JournalConfig{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	d := NewDaemon(proc, Config{Journal: j, QueueSize: 1 << 16}, &captureSink{})
	defer d.Shutdown(context.Background())
	h := NewServer(d).Handler()
	body := benchLines(lines)
	deltas := strings.Repeat(",1", lines-1)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
		req.Header.Set(HeaderStream, "bench")
		req.Header.Set(HeaderStreamPos, strconv.Itoa(i*lines+1)+deltas)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusAccepted {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	perLine := float64(b.N * lines)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perLine, "ns/line")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/perLine, "allocs/line")
}
