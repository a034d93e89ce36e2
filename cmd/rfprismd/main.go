// Command rfprismd is the RF-Prism streaming ingestion daemon: it
// accepts raw per-read reader reports, sessionizes them per EPC into
// hop-round windows, solves each window on the System's worker pool,
// and serves results over HTTP.
//
// Report sources:
//
//   - HTTP: POST /v1/ingest with NDJSON, one sim.Reading JSON object per
//     line — the shape an Octane-subscription bridge would emit.
//   - Replay: -replay synthesizes a seeded multi-tag interleaved
//     stream from the bundled simulator; -replay-file feeds a recorded
//     NDJSON report file. Both honor the daemon's backpressure.
//
// Results flow to the snapshot store (GET /v1/tags/{epc}) and optionally
// an NDJSON file (-out). /healthz (liveness), /readyz (readiness) and
// /metrics expose queue depths, window-close reasons, solver latency,
// degraded-window counts and the crash-safety state. SIGINT/SIGTERM
// drain gracefully: open windows are flushed through the solver
// before exit.
//
// With -journal-dir the daemon is crash-safe: reports are journaled
// before sessionization (losing at most -journal-sync of data on
// kill -9), served windows are recorded in an emission ledger, and
// -recover replays the journal on startup to rebuild open sessions
// and re-solve windows lost in flight — without ever serving a window
// twice. Solver panics are isolated per window and quarantined under
// <journal-dir>/quarantine; repeated panics trip a breaker into
// journal-only mode (DESIGN.md §9).
//
// Observability: structured logs go to stderr (-log-format text|json,
// -log-level), the pipeline stage tracer always feeds the per-stage
// latency histograms on /metrics, -trace additionally exports every
// window's spans as NDJSON, and -debug-addr starts a side server with
// net/http/pprof and Go runtime gauges (heap, goroutines, GC pause)
// next to a second /metrics mount (DESIGN.md §10).
//
// The deployment geometry and calibration are recreated from -seed
// exactly as cmd/rfprism-process does; a production deployment would
// load a surveyed site file instead.
//
// Usage:
//
//	rfprismd -addr :8390                      # serve HTTP ingest
//	rfprismd -replay -tags 3 -rounds 2 -out results.ndjson
//	rfprismd -replay -pace 1 -addr :8390      # live-paced demo feed
//	rfprismd -addr :8390 -log-format json -debug-addr :8391
package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rfprism"
	"rfprism/internal/geom"
	"rfprism/internal/ingest"
	"rfprism/internal/obs"
	"rfprism/internal/rf"
	"rfprism/internal/serve"
	"rfprism/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rfprismd:", err)
		os.Exit(1)
	}
}

type options struct {
	addr         string
	addrFile     string
	seed         int64
	env          string
	coverage     int
	dwell        time.Duration
	queue        int
	parallelism  int
	retryAfter   time.Duration
	ring         int
	out          string
	replay       bool
	replayFile   string
	tags         int
	rounds       int
	pace         float64
	drainTimeout time.Duration
	journalDir   string
	journalSync  time.Duration
	recover      bool
	logFormat    string
	logLevel     string
	debugAddr    string
	traceFile    string
	solveCache   int
	confidence   bool
	readRate     float64
	readBurst    int
	maxStreams   int
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("rfprismd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "", "HTTP listen address (empty: no server)")
	fs.StringVar(&o.addrFile, "addr-file", "", "write the bound listen address to this file (atomic rename; lets a router or supervisor discover an ephemeral :0 port)")
	fs.Int64Var(&o.seed, "seed", 1, "deployment seed (geometry, hardware offsets, calibration)")
	fs.StringVar(&o.env, "env", "clean", "environment: clean|multipath")
	fs.IntVar(&o.coverage, "coverage", 45, "distinct channels that close a window")
	fs.DurationVar(&o.dwell, "dwell", 15*time.Second, "window dwell deadline")
	fs.IntVar(&o.queue, "queue", 64, "closed-window queue capacity")
	fs.IntVar(&o.parallelism, "parallelism", 0, "solver workers (0: GOMAXPROCS)")
	fs.DurationVar(&o.retryAfter, "retry-after", time.Second, "backpressure pause advertised to clients")
	fs.IntVar(&o.ring, "ring", 16, "results kept per tag for /v1/tags queries")
	fs.StringVar(&o.out, "out", "", "NDJSON results file (\"-\": stdout)")
	fs.BoolVar(&o.replay, "replay", false, "replay a simulated multi-tag stream")
	fs.StringVar(&o.replayFile, "replay-file", "", "replay a recorded NDJSON report file")
	fs.IntVar(&o.tags, "tags", 3, "simulated tags (-replay)")
	fs.IntVar(&o.rounds, "rounds", 2, "simulated hop rounds (-replay)")
	fs.Float64Var(&o.pace, "pace", 0, "replay pacing: 1 = real time, 0 = full speed")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful drain budget on shutdown")
	fs.StringVar(&o.journalDir, "journal-dir", "", "write-ahead report journal directory (empty: no journal)")
	fs.DurationVar(&o.journalSync, "journal-sync", 100*time.Millisecond, "journal fsync interval — the crash loss bound (-journal-dir)")
	fs.BoolVar(&o.recover, "recover", false, "replay the journal on startup to rebuild sessions and re-solve lost windows (-journal-dir)")
	fs.StringVar(&o.logFormat, "log-format", "text", "structured log format: text|json (stderr)")
	fs.StringVar(&o.logLevel, "log-level", "info", "log level: debug|info|warn|error")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "debug server address: pprof + Go runtime metrics (empty: off)")
	fs.StringVar(&o.traceFile, "trace", "", "export per-window pipeline stage spans as NDJSON to this file")
	fs.IntVar(&o.solveCache, "solve-cache", 0, "stationary-tag cache size in tags, 0 disables (serves unchanged tags without solving)")
	fs.BoolVar(&o.confidence, "confidence", false, "run the likelihood layer: soft antenna down-weighting plus a per-result confidence block (covariance CIs, ambiguity margin) on /v1 payloads")
	fs.Float64Var(&o.readRate, "read-rate", 0, "per-client request rate limit on the API surface, req/s (0: unlimited)")
	fs.IntVar(&o.readBurst, "read-burst", 0, "per-client token-bucket burst (0: ceil of -read-rate)")
	fs.IntVar(&o.maxStreams, "max-streams", 0, "per-client concurrent SSE/long-poll cap (0: unlimited)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if !o.replay && o.replayFile == "" && o.addr == "" {
		return o, fmt.Errorf("nothing to do: need -addr, -replay or -replay-file")
	}
	if o.recover && o.journalDir == "" {
		return o, fmt.Errorf("-recover requires -journal-dir")
	}
	if o.addrFile != "" && o.addr == "" {
		return o, fmt.Errorf("-addr-file requires -addr")
	}
	if o.replay && o.tags < 1 {
		return o, fmt.Errorf("-tags must be ≥ 1, got %d", o.tags)
	}
	switch o.logFormat {
	case "text", "json":
	default:
		return o, fmt.Errorf("unknown -log-format %q (text|json)", o.logFormat)
	}
	if _, err := parseLogLevel(o.logLevel); err != nil {
		return o, err
	}
	return o, nil
}

func parseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown -log-level %q (debug|info|warn|error)", s)
	}
}

// newLogger builds the daemon's structured logger. Logs go to stderr:
// stdout is reserved for the operational status lines and, with
// "-out -", the NDJSON result stream.
func newLogger(o options) *slog.Logger {
	level, _ := parseLogLevel(o.logLevel) // validated by parseFlags
	opts := &slog.HandlerOptions{Level: level}
	if o.logFormat == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts))
}

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	scene, sys, err := buildDeployment(o)
	if err != nil {
		return err
	}

	logger := newLogger(o)
	met := ingest.NewMetrics(time.Now())
	met.AttachSolverStats(sys.SolveStats)

	// The stage tracer is always on in the daemon: Metrics folds every
	// window's spans into the /metrics per-stage histograms; -trace
	// additionally exports the raw spans as NDJSON.
	tracers := []rfprism.Tracer{met}
	if o.traceFile != "" {
		tf, err := os.Create(o.traceFile)
		if err != nil {
			return err
		}
		defer tf.Close()
		tracers = append(tracers, rfprism.NewNDJSONTracer(tf))
	}
	rfprism.WithTracer(rfprism.MultiTracer(tracers...))(sys)

	// The epoch-swapped snapshot store backs every read: Emit is a short
	// mutex + append, readers load one atomic pointer, and the swapper
	// decouples the two.
	store := serve.NewStore(serve.StoreConfig{History: o.ring})
	sinks := []ingest.Sink{store}
	var outFile *os.File
	switch o.out {
	case "":
	case "-":
		sinks = append(sinks, ingest.NewNDJSONSink(stdout))
	default:
		outFile, err = os.Create(o.out)
		if err != nil {
			return err
		}
		defer outFile.Close()
		sinks = append(sinks, ingest.NewNDJSONSink(outFile))
	}

	var journal *ingest.Journal
	if o.journalDir != "" {
		journal, err = ingest.OpenJournal(ingest.JournalConfig{
			Dir:       o.journalDir,
			SyncEvery: o.journalSync,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "rfprismd: journaling to %s (sync %v, next seq %d)\n",
			o.journalDir, o.journalSync, journal.NextSeq())
	}

	d := ingest.NewDaemon(sys, ingest.Config{
		Sessionizer: ingest.SessionizerConfig{
			CoverageClose: o.coverage,
			Dwell:         o.dwell,
		},
		QueueSize:  o.queue,
		RetryAfter: o.retryAfter,
		Journal:    journal,
		Logger:     logger,
		Metrics:    met,
	}, sinks...)

	if o.recover {
		info, err := d.Recover()
		if err != nil {
			return fmt.Errorf("journal recovery: %w", err)
		}
		fmt.Fprintf(stdout,
			"rfprismd: recovered — %d reports replayed (%d corrupt, %d torn), %d windows suppressed, %d re-queued, %d sessions reopened\n",
			info.Replay.Reports, info.Replay.Corrupt, info.Replay.Torn,
			info.Suppressed, info.Requeued, info.OpenSessions)
	}

	// Replay feeds and the signal handler share one cancellation: the
	// first SIGINT/SIGTERM stops feeding and starts the drain.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The serve tier fronts the API: every tag read (plain, long-poll,
	// SSE) plus per-client limits, with ingest, health and metrics
	// falling through to the ingest server.
	var lim *serve.Limiter
	if o.readRate > 0 || o.maxStreams > 0 {
		lim = serve.NewLimiter(serve.LimiterConfig{
			RatePerSec: o.readRate,
			Burst:      o.readBurst,
			MaxStreams: o.maxStreams,
		})
	}
	streamSrv := serve.NewServer(store, lim, logger)
	serve.RegisterMetrics(met.Registry(), store, streamSrv, lim)

	var httpSrv *http.Server
	serveErr := make(chan error, 1)
	if o.addr != "" {
		ln, err := net.Listen("tcp", o.addr)
		if err != nil {
			return err
		}
		// Slow-loris protection: bound the header dribble and reap idle
		// keep-alives (in-flight SSE streams are unaffected).
		httpSrv = &http.Server{
			Handler:           streamSrv.Wrap(ingest.NewServer(d).Handler()),
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		fmt.Fprintf(stdout, "rfprismd: listening on %s\n", ln.Addr())
		if o.addrFile != "" {
			// Write-then-rename so a polling supervisor never reads a
			// half-written address.
			tmp := o.addrFile + ".tmp"
			if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
				return err
			}
			if err := os.Rename(tmp, o.addrFile); err != nil {
				return err
			}
		}
		go func() { serveErr <- httpSrv.Serve(ln) }()
	}

	var debugSrv *http.Server
	debugErr := make(chan error, 1)
	if o.debugAddr != "" {
		obs.RegisterGoRuntime(met.Registry())
		dln, err := net.Listen("tcp", o.debugAddr)
		if err != nil {
			return err
		}
		debugSrv = &http.Server{
			Handler:           debugHandler(d),
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		fmt.Fprintf(stdout, "rfprismd: debug server on %s\n", dln.Addr())
		go func() { debugErr <- debugSrv.Serve(dln) }()
	}

	replayDone := make(chan error, 1)
	feeding := o.replay || o.replayFile != ""
	if feeding {
		go func() { replayDone <- feed(ctx, d, scene, o, stdout) }()
	}

	// Lifecycle: a pure replay run drains as soon as the feed ends; a
	// serving daemon runs until a signal (replay, if any, is a warm-up
	// feed alongside the server).
	var runErr error
	if feeding && o.addr == "" {
		select {
		case runErr = <-replayDone:
		case <-ctx.Done():
			runErr = <-replayDone // feed observes ctx and returns
		}
	} else {
		<-ctx.Done()
		if feeding {
			runErr = <-replayDone
		}
	}
	if errors.Is(runErr, context.Canceled) {
		runErr = nil
	}

	if httpSrv != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutCtx)
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) && runErr == nil {
			runErr = err
		}
	}
	if debugSrv != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = debugSrv.Shutdown(shutCtx)
		if err := <-debugErr; err != nil && !errors.Is(err, http.ErrServerClosed) && runErr == nil {
			runErr = err
		}
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := d.Shutdown(drainCtx); err != nil && runErr == nil {
		runErr = err
	}
	m := d.Metrics()
	fmt.Fprintf(stdout, "rfprismd: drained — %d reports, %d results (%d ok, %d errors, %d degraded)\n",
		m.ReportsAccepted.Load(), m.ResultsOK.Load()+m.ResultsErr.Load(),
		m.ResultsOK.Load(), m.ResultsErr.Load(), m.WindowsDegraded.Load())
	return runErr
}

// debugHandler serves the -debug-addr side server: pprof for CPU/heap
// profiling plus a /metrics mount so the full exposition (including
// the Go runtime gauges) is reachable even when -addr is off.
func debugHandler(d *ingest.Daemon) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		d.Metrics().WriteText(w, time.Now(), d.Gauges())
	})
	return mux
}

// buildDeployment recreates the seeded simulator deployment and a
// calibrated System over it, mirroring cmd/rfprism-process.
func buildDeployment(o options) (*sim.Scene, *rfprism.System, error) {
	environment := rf.CleanSpace()
	switch o.env {
	case "clean":
	case "multipath":
		environment = rf.LabMultipath()
	default:
		return nil, nil, fmt.Errorf("unknown -env %q (clean|multipath)", o.env)
	}
	hwRng := rand.New(rand.NewSource(o.seed))
	scene, err := sim.NewScene(sim.PaperAntennas2D(hwRng), environment, sim.DefaultConfig(), o.seed+999)
	if err != nil {
		return nil, nil, err
	}
	sysOpts := []rfprism.Option{rfprism.WithParallelism(o.parallelism)}
	if o.solveCache > 0 {
		sysOpts = append(sysOpts, rfprism.WithSolveCache(o.solveCache))
	}
	if o.confidence {
		sysOpts = append(sysOpts, rfprism.WithConfidence())
	}
	sys, err := rfprism.NewSystem(
		rfprism.DeploymentFromSim(scene.Antennas),
		rfprism.Bounds2D(sim.PaperRegion()),
		sysOpts...,
	)
	if err != nil {
		return nil, nil, err
	}
	none, err := rf.MaterialByName("none")
	if err != nil {
		return nil, nil, err
	}
	calPos := geom.Vec3{X: 1.0, Y: 1.5}
	calTag := scene.NewTag("cal")
	var calWin []sim.Reading
	for i := 0; i < 3; i++ {
		calWin = append(calWin, scene.CollectWindow(calTag, scene.Place(calPos, 0, none))...)
	}
	if err := sys.CalibrateAntennas(calWin, calPos, 0); err != nil {
		return nil, nil, err
	}
	return scene, sys, nil
}

// feed pushes the configured replay source through the daemon.
func feed(ctx context.Context, d *ingest.Daemon, scene *sim.Scene, o options, stdout io.Writer) error {
	var reports []sim.Reading
	switch {
	case o.replayFile != "":
		var err error
		reports, err = readReportFile(o.replayFile)
		if err != nil {
			return err
		}
	default:
		none, err := rf.MaterialByName("none")
		if err != nil {
			return err
		}
		region := sim.PaperRegion()
		posRng := rand.New(rand.NewSource(o.seed + 7))
		tracked := make([]sim.TrackedTag, o.tags)
		for i := range tracked {
			pos := geom.Vec3{
				X: region.XMin + posRng.Float64()*(region.XMax-region.XMin),
				Y: region.YMin + posRng.Float64()*(region.YMax-region.YMin),
			}
			tracked[i] = sim.TrackedTag{
				Tag:    scene.NewTag(fmt.Sprintf("replay-%02d", i)),
				Motion: scene.Place(pos, posRng.Float64()*3, none),
			}
		}
		reports, err = scene.CollectStream(tracked, o.rounds)
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "rfprismd: replaying %d reports (pace %g)\n", len(reports), o.pace)
	accepted, err := d.ReplayReports(ctx, reports, o.pace)
	if err != nil {
		return fmt.Errorf("replay stopped after %d reports: %w", accepted, err)
	}
	return nil
}

// readReportFile loads an NDJSON report file (one sim.Reading per
// line, blank lines tolerated).
func readReportFile(path string) ([]sim.Reading, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []sim.Reading
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		rd, err := sim.ParseReading(raw)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, rd)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no reports", path)
	}
	return out, nil
}
