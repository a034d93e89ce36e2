// Package crashtest proves rfprismd's crash-safety contract end to
// end: a daemon fed a seeded multi-tag report stream is SIGKILLed at
// randomized points, restarted with journal recovery, and its combined
// output is compared against an offline baseline over the reports that
// actually survived. The invariants under test are the ones DESIGN.md
// §9 promises — no duplicate (EPC, FirstSeq) window is ever emitted,
// every surviving report ends up in exactly the window the offline
// sessionizer would have built, and a crash loses at most the journal
// sync interval's worth of reports.
//
// The kill is real: the test re-executes its own binary in a child
// mode (TestMain dispatches on an environment variable) and the child
// SIGKILLs itself mid-stream, so no defer, flush or shutdown path can
// soften the crash.
package crashtest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"rfprism"
	"rfprism/internal/geom"
	"rfprism/internal/ingest"
	"rfprism/internal/rf"
	"rfprism/internal/serve"
	"rfprism/internal/sim"
)

// Child-mode environment contract between the parent test and the
// re-executed binary.
const (
	envChild   = "RFPRISM_CRASHTEST_CHILD"
	envDir     = "RFPRISM_CRASHTEST_DIR"
	envSeed    = "RFPRISM_CRASHTEST_SEED"
	envCrashAt = "RFPRISM_CRASHTEST_CRASH_AT"
	envResume  = "RFPRISM_CRASHTEST_RESUME_FROM"
	envRecover = "RFPRISM_CRASHTEST_RECOVER"
	// envMode selects the child role: "" / "feed" is the classic
	// self-feeding, self-killing daemon; "serve" runs a full rfprismd
	// shard (daemon + journal + HTTP server) that is fed — and killed —
	// from outside, which is what the router chaos test needs.
	envMode = "RFPRISM_CRASHTEST_MODE"
	// envAddrFile is where a serve-mode child publishes its bound
	// listen address (written atomically; the parent polls for it).
	envAddrFile = "RFPRISM_CRASHTEST_ADDR_FILE"
)

// Fixed harness parameters. syncRecords is the deterministic loss
// bound the parent asserts; the hour-long time triggers keep every
// sync and window close a pure function of the report stream, never of
// wall-clock scheduling.
const (
	harnessTags   = 2
	harnessRounds = 2
	coverageClose = 45
	syncRecords   = 32
	harnessDwell  = time.Hour
	harnessQueue  = 64
)

// IsChild reports whether this process was re-executed as the crash
// harness child; TestMain must then call RunChild instead of running
// the test suite.
func IsChild() bool { return os.Getenv(envChild) == "1" }

// RunChild runs the child role to completion and returns its exit
// code. A scheduled crash never returns at all — the child SIGKILLs
// itself (feed mode) or is killed from outside (serve mode).
func RunChild() int {
	run := runChild
	if os.Getenv(envMode) == "serve" {
		run = runServeChild
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "crashtest child:", err)
		return 1
	}
	return 0
}

// sessionizerConfig is shared by the child daemon and the parent's
// offline baseline: equality of their outputs is only meaningful if
// both assemble windows identically.
func sessionizerConfig() ingest.SessionizerConfig {
	return ingest.SessionizerConfig{CoverageClose: coverageClose, Dwell: harnessDwell}
}

// buildHarness recreates the deterministic deployment: a seeded scene,
// a calibrated System over it, and the full interleaved report stream.
// Parent and child both call it with the same seed, so the child can
// regenerate "the reader's" remaining stream after a restart and the
// parent can solve an exact offline baseline.
func buildHarness(seed int64) (*rfprism.System, []sim.Reading, error) {
	hwRng := rand.New(rand.NewSource(seed))
	scene, err := sim.NewScene(sim.PaperAntennas2D(hwRng), rf.CleanSpace(), sim.DefaultConfig(), seed+999)
	if err != nil {
		return nil, nil, err
	}
	sys, err := rfprism.NewSystem(
		rfprism.DeploymentFromSim(scene.Antennas),
		rfprism.Bounds2D(sim.PaperRegion()),
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

	region := sim.PaperRegion()
	posRng := rand.New(rand.NewSource(seed + 7))
	tracked := make([]sim.TrackedTag, harnessTags)
	for i := range tracked {
		pos := geom.Vec3{
			X: region.XMin + posRng.Float64()*(region.XMax-region.XMin),
			Y: region.YMin + posRng.Float64()*(region.YMax-region.YMin),
		}
		tracked[i] = sim.TrackedTag{
			Tag:    scene.NewTag(fmt.Sprintf("crash-%02d", i)),
			Motion: scene.Place(pos, posRng.Float64()*3, none),
		}
	}
	reports, err := scene.CollectStream(tracked, harnessRounds)
	if err != nil {
		return nil, nil, err
	}
	return sys, reports, nil
}

// shardTags is the tag population for the sharded chaos stream — wide
// enough that a 3-shard ring spreads EPCs across every shard.
const shardTags = 6

// buildShardStream regenerates the interleaved multi-tag stream the
// shard chaos parent feeds through the router. Serve-mode children
// never see it directly (they are fed over HTTP), but it is built on
// the same seeded scene as buildHarness's calibration, so the
// children's solvers see physically consistent reports.
func buildShardStream(seed int64) ([]sim.Reading, error) {
	hwRng := rand.New(rand.NewSource(seed))
	scene, err := sim.NewScene(sim.PaperAntennas2D(hwRng), rf.CleanSpace(), sim.DefaultConfig(), seed+999)
	if err != nil {
		return nil, err
	}
	none, err := rf.MaterialByName("none")
	if err != nil {
		return nil, err
	}
	region := sim.PaperRegion()
	posRng := rand.New(rand.NewSource(seed + 13))
	tracked := make([]sim.TrackedTag, shardTags)
	for i := range tracked {
		pos := geom.Vec3{
			X: region.XMin + posRng.Float64()*(region.XMax-region.XMin),
			Y: region.YMin + posRng.Float64()*(region.YMax-region.YMin),
		}
		tracked[i] = sim.TrackedTag{
			Tag:    scene.NewTag(fmt.Sprintf("shard-%02d", i)),
			Motion: scene.Place(pos, posRng.Float64()*3, none),
		}
	}
	return scene.CollectStream(tracked, harnessRounds)
}

// runServeChild is one shard lifetime: a journaled daemon behind the
// full ingest HTTP server on an ephemeral loopback port, its address
// published through the addr file. The child serves until SIGTERM
// (clean drain) or until the parent SIGKILLs the process — the crash
// under test.
func runServeChild() error {
	dir := os.Getenv(envDir)
	addrFile := os.Getenv(envAddrFile)
	if dir == "" || addrFile == "" {
		return fmt.Errorf("serve child needs %s and %s", envDir, envAddrFile)
	}
	seed, err := strconv.ParseInt(os.Getenv(envSeed), 10, 64)
	if err != nil {
		return fmt.Errorf("bad %s: %w", envSeed, err)
	}
	sys, _, err := buildHarness(seed)
	if err != nil {
		return err
	}
	j, err := ingest.OpenJournal(ingest.JournalConfig{
		Dir:         dir,
		SyncEvery:   time.Hour, // count-triggered syncs only: deterministic loss bound
		SyncRecords: syncRecords,
	})
	if err != nil {
		return err
	}
	store := serve.NewStore(serve.StoreConfig{History: 8})
	d := ingest.NewDaemon(sys, ingest.Config{
		Sessionizer: sessionizerConfig(),
		QueueSize:   harnessQueue,
		Journal:     j,
	}, store)
	if os.Getenv(envRecover) == "1" {
		info, err := d.Recover()
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		fmt.Fprintf(os.Stderr, "crashtest shard: recovered %+v\n", info)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           serve.NewServer(store, nil, nil).Wrap(ingest.NewServer(d).Handler()),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { _ = srv.Serve(ln) }()
	// Publish the bound address atomically: write-then-rename, so the
	// polling parent never reads a half-written file.
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		return err
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM)
	<-sigc
	_ = srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	return d.Shutdown(ctx)
}

// runChild is one daemon lifetime: open the journal, optionally
// recover, feed the stream from the resume index, and either SIGKILL
// at the scheduled report or drain cleanly.
func runChild() error {
	dir := os.Getenv(envDir)
	seed, err := strconv.ParseInt(os.Getenv(envSeed), 10, 64)
	if err != nil {
		return fmt.Errorf("bad %s: %w", envSeed, err)
	}
	crashAt, err := strconv.Atoi(os.Getenv(envCrashAt))
	if err != nil {
		return fmt.Errorf("bad %s: %w", envCrashAt, err)
	}
	resume, err := strconv.Atoi(os.Getenv(envResume))
	if err != nil {
		return fmt.Errorf("bad %s: %w", envResume, err)
	}

	sys, reports, err := buildHarness(seed)
	if err != nil {
		return err
	}
	j, err := ingest.OpenJournal(ingest.JournalConfig{
		Dir:         dir,
		SyncEvery:   time.Hour, // count-triggered syncs only: deterministic
		SyncRecords: syncRecords,
	})
	if err != nil {
		return err
	}
	d := ingest.NewDaemon(sys, ingest.Config{
		Sessionizer: sessionizerConfig(),
		QueueSize:   harnessQueue,
		Journal:     j,
	})
	if os.Getenv(envRecover) == "1" {
		info, err := d.Recover()
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		fmt.Fprintf(os.Stderr, "crashtest child: recovered %+v\n", info)
	}

	for i := resume; i < len(reports); i++ {
		for {
			err := d.Offer(reports[i])
			if err == nil {
				break
			}
			if errors.Is(err, ingest.ErrBusy) {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			return fmt.Errorf("offer report %d: %w", i, err)
		}
		if i == crashAt {
			// The crash under test: no flush, no drain, no defers.
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // unreachable
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	return d.Shutdown(ctx)
}
