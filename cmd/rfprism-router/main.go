// Command rfprism-router fronts a fleet of rfprismd shards: it
// consistent-hashes every report's EPC onto a shard, fans POST /v1/ingest
// NDJSON out per-EPC with resume-line backpressure, scatter-gathers
// GET /v1/tags and /v1/tags/{epc} (degrading to partial results when a
// shard is down), and aggregates /metrics and /readyz across the
// fleet.
//
// Two ways to get a fleet:
//
//   - Static: -shards "s0=http://127.0.0.1:8391,s1=http://127.0.0.1:8392"
//     registers externally managed rfprismd processes (start them with
//     -addr :0 -addr-file <path> to discover ephemeral ports). Shards
//     can also be added or removed at runtime via POST/DELETE on
//     /admin/shards.
//   - Local: -local N starts N in-process shards — each a full
//     journaled rfprismd daemon with its own recovery domain, solving
//     on the seeded paper deployment — behind the router. This is the
//     one-command 3-shard quickstart from the README; production runs
//     separate processes.
//
// Usage:
//
//	rfprism-router -addr :8490 -local 3 -journal-dir /var/lib/rfprism
//	rfprism-router -addr :8490 -shards "s0=http://10.0.0.1:8390,s1=http://10.0.0.2:8390"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rfprism"
	"rfprism/internal/geom"
	"rfprism/internal/ingest"
	"rfprism/internal/rf"
	"rfprism/internal/router"
	"rfprism/internal/serve"
	"rfprism/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rfprism-router:", err)
		os.Exit(1)
	}
}

type options struct {
	addr         string
	addrFile     string
	shards       string
	local        int
	seed         int64
	coverage     int
	dwell        time.Duration
	queue        int
	parallelism  int
	journalDir   string
	vnodes       int
	chunkLines   int
	shardTimeout time.Duration
	drainTimeout time.Duration
	logFormat    string
	logLevel     string
	readRate     float64
	readBurst    int
	maxStreams   int
	retries      int
	breakerOpen  time.Duration
	noHedge      bool
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("rfprism-router", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8490", "HTTP listen address")
	fs.StringVar(&o.addrFile, "addr-file", "", "write the bound listen address to this file (atomic rename)")
	fs.StringVar(&o.shards, "shards", "", "static shard list: id=url[,id=url...]")
	fs.IntVar(&o.local, "local", 0, "start N in-process shards instead of -shards")
	fs.Int64Var(&o.seed, "seed", 1, "deployment seed for -local shards (must match the feed)")
	fs.IntVar(&o.coverage, "coverage", 45, "distinct channels that close a window (-local)")
	fs.DurationVar(&o.dwell, "dwell", 15*time.Second, "window dwell deadline (-local)")
	fs.IntVar(&o.queue, "queue", 64, "per-shard closed-window queue capacity (-local)")
	fs.IntVar(&o.parallelism, "parallelism", 0, "per-shard solver workers, 0 = GOMAXPROCS (-local)")
	fs.StringVar(&o.journalDir, "journal-dir", "", "per-shard crash-safe journals under this directory (-local)")
	fs.IntVar(&o.vnodes, "vnodes", 0, "virtual nodes per shard on the hash ring (0: default 128)")
	fs.IntVar(&o.chunkLines, "chunk-lines", 0, "NDJSON lines per forwarded shard batch (0: default 512)")
	fs.DurationVar(&o.shardTimeout, "shard-timeout", 10*time.Second, "per-shard request timeout")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful drain budget for -local shards on shutdown")
	fs.StringVar(&o.logFormat, "log-format", "text", "structured log format: text|json (stderr)")
	fs.StringVar(&o.logLevel, "log-level", "info", "log level: debug|info|warn|error")
	fs.Float64Var(&o.readRate, "read-rate", 0, "per-client request rate limit on the API surface, req/s (0: unlimited)")
	fs.IntVar(&o.readBurst, "read-burst", 0, "per-client token-bucket burst (0: ceil of -read-rate)")
	fs.IntVar(&o.maxStreams, "max-streams", 0, "per-client concurrent SSE stream cap (0: unlimited)")
	fs.IntVar(&o.retries, "retries", 0, "extra attempts per idempotent shard sub-request (0: default 2, -1: disable)")
	fs.DurationVar(&o.breakerOpen, "breaker-open", 0, "how long an open per-shard circuit breaker fails fast (0: default 2s)")
	fs.BoolVar(&o.noHedge, "no-hedge", false, "disable hedged scatter reads")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if (o.shards == "") == (o.local == 0) {
		return o, fmt.Errorf("need exactly one of -shards or -local")
	}
	return o, nil
}

func newLogger(o options) (*slog.Logger, error) {
	var level slog.Level
	switch o.logLevel {
	case "debug":
		level = slog.LevelDebug
	case "info":
		level = slog.LevelInfo
	case "warn":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (debug|info|warn|error)", o.logLevel)
	}
	opts := &slog.HandlerOptions{Level: level}
	switch o.logFormat {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (text|json)", o.logFormat)
	}
}

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	logger, err := newLogger(o)
	if err != nil {
		return err
	}
	var lim *serve.Limiter
	if o.readRate > 0 || o.maxStreams > 0 {
		lim = serve.NewLimiter(serve.LimiterConfig{
			RatePerSec: o.readRate,
			Burst:      o.readBurst,
			MaxStreams: o.maxStreams,
		})
	}
	rcfg := router.Config{
		Vnodes:       o.vnodes,
		ChunkLines:   o.chunkLines,
		ShardTimeout: o.shardTimeout,
		Limiter:      lim,
		Logger:       logger,
		Resilience: router.ResilienceConfig{
			Retries:        o.retries,
			OpenFor:        o.breakerOpen,
			DisableHedging: o.noHedge,
		},
	}

	var (
		rt      *router.Router
		cluster *router.Cluster
	)
	if o.local > 0 {
		cluster, err = newLocalCluster(o, rcfg)
		if err != nil {
			return err
		}
		rt = cluster.Router()
		for _, id := range cluster.ShardIDs() {
			fmt.Fprintf(stdout, "rfprism-router: local shard %s at %s\n", id, cluster.ShardURL(id))
		}
	} else {
		rt = router.New(rcfg)
		for _, kv := range strings.Split(o.shards, ",") {
			id, url, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok || id == "" || url == "" {
				return fmt.Errorf("bad -shards entry %q (want id=url)", kv)
			}
			if err := rt.AddShard(id, url); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "rfprism-router: shard %s at %s\n", id, url)
		}
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	if o.addrFile != "" {
		tmp := o.addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, o.addrFile); err != nil {
			return err
		}
	}
	// The token-bucket half of the limiter wraps the whole surface;
	// the stream-quota half is enforced inside the SSE handlers.
	// ReadHeaderTimeout bounds a slow-loris client's header dribble;
	// IdleTimeout reaps abandoned keep-alive connections. Neither
	// touches in-flight SSE streams or long-poll bodies.
	srv := &http.Server{
		Handler:           lim.Middleware(rt.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	fmt.Fprintf(stdout, "rfprism-router: listening on %s\n", ln.Addr())
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutCtx)
	runErr := <-serveErr
	if errors.Is(runErr, http.ErrServerClosed) {
		runErr = nil
	}
	if cluster != nil {
		drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
		defer cancel()
		if err := cluster.Close(drainCtx); err != nil && runErr == nil {
			runErr = err
		}
		fmt.Fprintln(stdout, "rfprism-router: local shards drained")
	}
	return runErr
}

// newLocalCluster starts -local N full in-process shards, each solving
// on its own calibrated copy of the seeded paper deployment. Every
// shard is calibrated from the same seed, so their solve outputs are
// bit-identical to a single daemon's — the conformance property the
// router tier depends on.
func newLocalCluster(o options, rcfg router.Config) (*router.Cluster, error) {
	return router.NewCluster(router.ClusterConfig{
		Shards: o.local,
		Dir:    o.journalDir,
		NewProcessor: func(id string) ingest.Processor {
			sys, err := buildSystem(o)
			if err != nil {
				// NewProcessor cannot fail; a broken deployment seed
				// must abort startup instead.
				panic(fmt.Sprintf("rfprism-router: shard %s deployment: %v", id, err))
			}
			return sys
		},
		Daemon: ingest.Config{
			Sessionizer: ingest.SessionizerConfig{CoverageClose: o.coverage, Dwell: o.dwell},
			QueueSize:   o.queue,
		},
		Router: rcfg,
	})
}

// buildSystem mirrors rfprismd's seeded deployment construction: same
// scene, same calibration, so router-fronted shards and a single
// daemon agree bit for bit.
func buildSystem(o options) (*rfprism.System, error) {
	hwRng := rand.New(rand.NewSource(o.seed))
	scene, err := sim.NewScene(sim.PaperAntennas2D(hwRng), rf.CleanSpace(), sim.DefaultConfig(), o.seed+999)
	if err != nil {
		return nil, err
	}
	sys, err := rfprism.NewSystem(
		rfprism.DeploymentFromSim(scene.Antennas),
		rfprism.Bounds2D(sim.PaperRegion()),
		rfprism.WithParallelism(o.parallelism),
	)
	if err != nil {
		return nil, err
	}
	none, err := rf.MaterialByName("none")
	if err != nil {
		return nil, err
	}
	calPos := geom.Vec3{X: 1.0, Y: 1.5}
	calTag := scene.NewTag("cal")
	var calWin []sim.Reading
	for i := 0; i < 3; i++ {
		calWin = append(calWin, scene.CollectWindow(calTag, scene.Place(calPos, 0, none))...)
	}
	if err := sys.CalibrateAntennas(calWin, calPos, 0); err != nil {
		return nil, err
	}
	return sys, nil
}
