package router

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
	"testing"
	"time"

	"rfprism/internal/ingest"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// BenchmarkRouterIngest posts one 512-line request per iteration
// through the router to 3 in-process journaled shards.
func BenchmarkRouterIngest(b *testing.B) {
	const lines = 512
	c, err := NewCluster(ClusterConfig{
		Shards:       3,
		Dir:          b.TempDir(),
		NewProcessor: func(string) ingest.Processor { return instantProc{} },
		Daemon:       ingest.Config{QueueSize: 1 << 16},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close(context.Background())
	h := c.Handler()
	// Shelf-like lines: 30 tags cycling through the 50 channels on 4
	// antennas, canonical form, full-precision phase and RSSI.
	rng := rand.New(rand.NewSource(1))
	var body []byte
	for i := 0; i < lines; i++ {
		ch := (i / 30) % rf.NumChannels
		f, _ := rf.ChannelFreq(ch)
		body = sim.AppendReading(body, sim.Reading{
			EPC: fmt.Sprintf("urn:epc:S%03d", i%30), Antenna: i % 4, Channel: ch, FreqHz: f,
			Phase: rng.Float64() * 2 * math.Pi, RSSI: -40 - 30*rng.Float64(), T: time.Duration(i) * time.Millisecond,
		})
		body = append(body, '\n')
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, allocBytes := ms.Mallocs, ms.TotalAlloc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
		req.Header.Set(ingest.HeaderStream, "bench")
		req.Header.Set(ingest.HeaderStreamPos, strconv.Itoa(i*lines+1))
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
	b.ReportMetric(float64(ms.TotalAlloc-allocBytes)/perLine, "B/line")
}
