package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"rfprism/internal/ingest"
	"rfprism/internal/router"
	"rfprism/internal/serve"
	"rfprism/internal/sim"
)

// Read-load rows.
//
// ReadLoadIdle / ReadLoad replay the same cloned tag population through
// one rfprismd-shaped node (instant solver, epoch-swapped snapshot
// store, serve tier wrapped over the ingest API) twice: once with no
// readers attached, then with ~100k concurrent read clients — plain
// pollers, long-pollers and SSE subscribers — hammering the surface for
// the whole replay. Both rows record ingest windows/sec; the loaded row
// additionally records read QPS and the poll-GET latency distribution.
// The pair is the serving-tier isolation claim in one JSON file: reads
// ride the atomic snapshot pointer, so attaching the fleet must not
// move solver-path throughput. A loaded pass that loses windows, drops
// a subscriber (slow-consumer eviction) or halves ingest throughput
// fails the bench run outright; slower regressions are caught by the
// -against gate on both windows/sec and read QPS.

// readTargetEPCs samples up to 256 cloned EPCs (the CloneStream default
// labels) for the read fleet to spread over.
func readTargetEPCs(template []sim.Reading, tags int) []string {
	stride := tags / 256
	if stride < 1 {
		stride = 1
	}
	epcs := make([]string, 0, 256)
	for c := 0; c < tags && len(epcs) < 256; c += stride {
		epcs = append(epcs, fmt.Sprintf("%s#c%06d", template[0].EPC, c))
	}
	return epcs
}

// readLoadPass replays `tags` cloned tags into a fresh single-node
// surface while `clients` read clients (0 for the idle baseline) poll,
// long-poll and subscribe, and returns the bench row.
func readLoadPass(name string, template []sim.Reading, tags, perClone, clients int) (benchRecord, error) {
	var solved atomic.Int64
	st := serve.NewStore(serve.StoreConfig{})
	d := ingest.NewDaemon(instantProc{}, ingest.Config{
		Sessionizer: clusterSessionizer(),
		QueueSize:   4096,
		RetryAfter:  2 * time.Millisecond,
	}, st, countSink{&solved})
	h := serve.NewServer(st, nil, nil).Wrap(ingest.NewServer(d).Handler())

	var (
		readRep  serve.ReadReport
		readErr  error
		readDone chan struct{}
	)
	readCtx, stopReaders := context.WithCancel(context.Background())
	defer stopReaders()
	if clients > 0 {
		// 90% pollers, 5% long-pollers, 5% SSE subscribers.
		pollers := clients * 9 / 10
		long := clients / 20
		readDone = make(chan struct{})
		go func() {
			defer close(readDone)
			readRep, readErr = serve.RunReadLoad(readCtx, h, serve.ReadLoadConfig{
				Pollers:     pollers,
				LongPollers: long,
				Subscribers: clients - pollers - long,
				EPCs:        readTargetEPCs(template, tags),
				// The fleet runs for as long as ingest does: bounded by
				// stopReaders below, not by a fixed duration.
				Duration: time.Hour,
				// Dashboard-style cadence. The row's claim is ~100k
				// *concurrent* clients (goroutines, held long-polls, open
				// SSE streams), not 100k requests/sec: at 1s polls the
				// offered rate would dwarf a small host's entire CPU and
				// the isolation check would measure starvation, not
				// locking.
				PollInterval: 10 * time.Second,
				Wait:         30 * time.Second,
			})
		}()
	}

	start := time.Now()
	_, err := router.RunLoad(context.Background(), h, router.LoadConfig{ChunkLines: 512},
		sim.CloneStream(template, tags, nil))
	if err == nil {
		// Stop the readers before the drain so subscriber streams end by
		// client cancel, not by the store's shutdown drop.
		stopReaders()
		if readDone != nil {
			<-readDone
		}
		err = d.Shutdown(context.Background())
	} else {
		_ = d.Shutdown(context.Background())
	}
	if err != nil {
		return benchRecord{}, fmt.Errorf("%s: %w", name, err)
	}
	elapsed := time.Since(start)

	windows := int64(tags) * int64(perClone)
	if got := solved.Load(); got != windows {
		return benchRecord{}, fmt.Errorf("%s: solved %d windows, want exactly %d — lost or duplicated work", name, got, windows)
	}
	rec := benchRecord{
		Name:          name,
		Parallelism:   1,
		NsPerOp:       elapsed.Nanoseconds() / windows,
		WindowsPerSec: float64(windows) / elapsed.Seconds(),
	}
	if clients > 0 {
		if readErr != nil {
			return benchRecord{}, fmt.Errorf("%s: read fleet: %w", name, readErr)
		}
		if readRep.Errors > 0 {
			return benchRecord{}, fmt.Errorf("%s: read fleet saw %d errors", name, readRep.Errors)
		}
		if readRep.Dropped > 0 {
			return benchRecord{}, fmt.Errorf("%s: %d subscribers evicted as slow consumers under load", name, readRep.Dropped)
		}
		rec.ReadClients = clients
		rec.ReadQPS = readRep.QPS
		rec.P50Ms = float64(readRep.P50.Nanoseconds()) / 1e6
		rec.P99Ms = float64(readRep.P99.Nanoseconds()) / 1e6
		rec.P999Ms = float64(readRep.P999.Nanoseconds()) / 1e6
	}
	return rec, nil
}

// readLoadRows runs the idle baseline and the loaded pass and applies
// the in-run isolation check.
func readLoadRows(tags, clients int) ([]benchRecord, error) {
	template, err := router.LoadTemplate(clusterTemplateSeed, clusterTemplateLines)
	if err != nil {
		return nil, err
	}
	perClone, err := router.OfflineWindowCount(template, clusterSessionizer())
	if err != nil {
		return nil, err
	}
	if perClone == 0 {
		return nil, fmt.Errorf("read-load template closes no windows")
	}
	idle, err := repeat(func() (benchRecord, error) {
		return readLoadPass("ReadLoadIdle", template, tags, perClone, 0)
	})
	if err != nil {
		return nil, err
	}
	loaded, err := repeat(func() (benchRecord, error) {
		return readLoadPass("ReadLoad", template, tags, perClone, clients)
	})
	if err != nil {
		return nil, err
	}
	// The committed-baseline gate catches slow drift; this catches the
	// catastrophic case in a single run: if attaching the read fleet
	// halves ingest throughput, reads are stalling the write path and
	// the row must not be recorded as a baseline.
	if loaded.WindowsPerSec < 0.5*idle.WindowsPerSec {
		return nil, fmt.Errorf("read fleet collapsed ingest throughput: %.1f -> %.1f windows/sec",
			idle.WindowsPerSec, loaded.WindowsPerSec)
	}
	return []benchRecord{idle, loaded}, nil
}
