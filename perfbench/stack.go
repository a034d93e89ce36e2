package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"rfprism"
	"rfprism/internal/geom"
	"rfprism/internal/ingest"
	"rfprism/internal/rf"
	"rfprism/internal/router"
	"rfprism/internal/sim"
)

// The stack under test: router.NewCluster with three journaled
// in-process shards, each solving on its own calibrated System with
// warm start and the stationary cache on (rfprismd -warm-start
// -solve-cache), plus -confidence where the workload asks for it. The
// benchmark reaches it only through public hooks: NewProcessor wraps
// each shard's System (traced runs only) and NewSinks adds one
// stamping sink per shard.

const (
	shards    = 3
	cacheTags = 4096
)

// stackOpts selects the optional layers of one stack.
type stackOpts struct {
	confidence bool
	traced     bool
	serial     bool // one solver worker (stand-alone replays)
}

type stack struct {
	cluster *router.Cluster
	handler http.Handler
	systems map[string]*rfprism.System
	stages  *rfprism.StageStats // traced runs only
	dir     string
}

// buildSystem mirrors rfprismd's seeded deployment: the paper's 2D
// antennas from deploySeed, calibrated on a known tag.
func buildSystem(o stackOpts, stages *rfprism.StageStats) (*rfprism.System, error) {
	hw := rand.New(rand.NewSource(deploySeed))
	scene, err := sim.NewScene(sim.PaperAntennas2D(hw), rf.CleanSpace(), sim.DefaultConfig(), deploySeed+999)
	if err != nil {
		return nil, err
	}
	opts := []rfprism.Option{rfprism.WithWarmStart(), rfprism.WithSolveCache(cacheTags)}
	if o.serial {
		opts = append(opts, rfprism.WithParallelism(1))
	}
	if o.confidence {
		opts = append(opts, rfprism.WithConfidence())
	}
	if stages != nil {
		opts = append(opts, rfprism.WithTracer(stages))
	}
	sys, err := rfprism.NewSystem(rfprism.DeploymentFromSim(scene.Antennas), rfprism.Bounds2D(sim.PaperRegion()), opts...)
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
	// Finish the solver's lazy set-up (kernel tables built on first
	// use) before anything is timed: solve one untagged window, which
	// leaves no per-tag state behind.
	if _, err := sys.ProcessWindow(scene.CollectWindow(calTag, scene.Place(geom.Vec3{X: 0.8, Y: 1.2}, 0.5, none))); err != nil {
		return nil, fmt.Errorf("priming solve: %w", err)
	}
	return sys, nil
}

// buildStack starts the cluster with journals under dir.
func buildStack(dir string, o stackOpts, rec *recorder) (*stack, error) {
	st := &stack{systems: make(map[string]*rfprism.System), dir: dir}
	if o.traced {
		st.stages = rfprism.NewStageStats()
	}
	for i := 0; i < shards; i++ {
		sys, err := buildSystem(o, st.stages)
		if err != nil {
			return nil, err
		}
		st.systems[fmt.Sprintf("s%d", i)] = sys // router.Cluster names shards s0, s1, …
	}
	c, err := router.NewCluster(router.ClusterConfig{
		Shards: shards,
		Dir:    dir,
		NewProcessor: func(id string) ingest.Processor {
			if o.traced {
				return &stampProc{inner: st.systems[id], rec: rec}
			}
			return st.systems[id]
		},
		NewSinks: func(id string) []ingest.Sink { return []ingest.Sink{recSink{shard: id, rec: rec}} },
		Daemon: ingest.Config{
			Sessionizer: ingest.SessionizerConfig{CoverageClose: coverageClose, MinAntennas: minAntennas},
		},
	})
	if err != nil {
		return nil, err
	}
	if len(c.ShardIDs()) != shards || st.systems[c.ShardIDs()[0]] == nil {
		_ = c.Close(context.Background())
		return nil, fmt.Errorf("cluster shard ids %v do not match the built systems", c.ShardIDs())
	}
	st.cluster = c
	st.handler = c.Handler()
	return st, nil
}

// close drains every shard (the deadline and drain tails reach the
// sinks here) and removes the journals.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := st.cluster.Close(ctx)
	if rerr := os.RemoveAll(st.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// solveStats sums the fast-path counters over the shards.
func (st *stack) solveStats() rfprism.SolveStatsSnapshot {
	var s rfprism.SolveStatsSnapshot
	for _, sys := range st.systems {
		x := sys.SolveStats()
		s.CacheHits += x.CacheHits
		s.CacheMisses += x.CacheMisses
		s.WarmAttempts += x.WarmAttempts
		s.WarmFallbacks += x.WarmFallbacks
		s.StartsPruned += x.StartsPruned
	}
	return s
}

// stampProc is the traced runs' Processor: it stamps each window as
// it enters the shard's System and as its result leaves. Windows of
// one EPC enter and leave in order, so the n-th window of an EPC here
// is the oracle's n-th emitted window of that EPC.
type stampProc struct {
	inner *rfprism.System
	rec   *recorder
}

func (p *stampProc) ProcessStream(ctx context.Context, in <-chan rfprism.Window) <-chan rfprism.WindowResult {
	mid := make(chan rfprism.Window)
	go func() {
		defer close(mid)
		for w := range in {
			p.rec.solverIn(w.Tag, time.Now())
			select {
			case mid <- w:
			case <-ctx.Done():
				return
			}
		}
	}()
	res := p.inner.ProcessStream(ctx, mid)
	out := make(chan rfprism.WindowResult)
	go func() {
		defer close(out)
		for r := range res {
			p.rec.solverOut(r.Tag, time.Now())
			select {
			case out <- r:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// recSink stamps each result's arrival at the shard's sinks.
type recSink struct {
	shard string
	rec   *recorder
}

func (s recSink) Emit(tr ingest.TagResult) error {
	s.rec.emit(s.shard, tr, time.Now())
	return nil
}

func (recSink) Close() error { return nil }

// winKey is a window's identity: EPC and per-EPC sequence number.
type winKey struct {
	epc string
	seq int
}

// winRec is everything observed about one window.
type winRec struct {
	solverIn, solverOut, sink, frame time.Time
	results                          int // sink arrivals
	frames                           int // SSE result frames
	shard                            string
	emitIdx                          int // position in its shard's sink order
	result                           ingest.TagResult
	// visible is when the window became visible on the firehose: its
	// frame's arrival, or that of its swap batch (see visibility).
	visible time.Time
}

// recorder collects the stamps of every window. emitted maps each EPC
// to the sequence numbers of its windows that reach the solver, in
// order (from the oracle).
type recorder struct {
	mu        sync.Mutex
	emitted   map[string][]int
	wins      map[winKey]*winRec
	inN       map[string]int
	outN      map[string]int
	emitN     map[string]int
	stray     []string // observations the oracle did not predict
	lastEvent time.Time
	// want holds the windows whose sink arrival counts towards wanted;
	// done is closed once every one has arrived.
	want   map[winKey]bool
	wanted int
	done   chan struct{}
}

func newRecorder(emitted map[string][]int) *recorder {
	return &recorder{
		emitted: emitted,
		wins:    make(map[winKey]*winRec),
		inN:     make(map[string]int),
		outN:    make(map[string]int),
		emitN:   make(map[string]int),
	}
}

func (r *recorder) winLocked(k winKey) *winRec {
	w := r.wins[k]
	if w == nil {
		w = &winRec{}
		r.wins[k] = w
	}
	return w
}

// nthLocked maps an EPC's n-th solver window to its key.
func (r *recorder) nthLocked(epc string, n int, what string) (winKey, bool) {
	seqs := r.emitted[epc]
	if n >= len(seqs) {
		r.stray = append(r.stray, fmt.Sprintf("%s: unexpected window %d of %s", what, n, epc))
		return winKey{}, false
	}
	return winKey{epc, seqs[n]}, true
}

func (r *recorder) solverIn(epc string, t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.inN[epc]
	r.inN[epc] = n + 1
	if k, ok := r.nthLocked(epc, n, "solver in"); ok {
		r.winLocked(k).solverIn = t
	}
}

func (r *recorder) solverOut(epc string, t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.outN[epc]
	r.outN[epc] = n + 1
	if k, ok := r.nthLocked(epc, n, "solver out"); ok {
		r.winLocked(k).solverOut = t
	}
}

func (r *recorder) emit(shard string, tr ingest.TagResult, t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := winKey{tr.EPC, tr.Seq}
	w := r.winLocked(k)
	w.results++
	w.sink, w.shard, w.result = t, shard, tr
	w.emitIdx = r.emitN[shard]
	r.emitN[shard]++
	r.lastEvent = t
	if w.results == 1 && r.want[k] {
		r.wanted++
		if r.done != nil && r.wanted == len(r.want) {
			close(r.done)
			r.done = nil
		}
	}
}

// frame records one SSE result frame.
func (r *recorder) frame(epc string, seq int, t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.winLocked(winKey{epc, seq})
	w.frames++
	w.frame = t
	r.lastEvent = t
}

// waitSinks blocks until every window in want has reached the sinks,
// or the timeout passes.
func (r *recorder) waitSinks(want map[winKey]bool, timeout time.Duration) bool {
	r.mu.Lock()
	r.want, r.wanted = want, 0
	for k := range want {
		if w := r.wins[k]; w != nil && w.results > 0 {
			r.wanted++
		}
	}
	if r.wanted >= len(want) {
		r.mu.Unlock()
		return true
	}
	done := make(chan struct{})
	r.done = done
	r.mu.Unlock()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		r.mu.Lock()
		r.done = nil
		r.mu.Unlock()
		return false
	}
}

// settle waits until every window in want has reached the sinks and
// the firehose has then been quiet for 100 ms (the swap, publish and
// relay of the last batch are done), or the timeout passes.
func (r *recorder) settle(want map[winKey]bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	if !r.waitSinks(want, timeout) {
		return false
	}
	for time.Now().Before(deadline) {
		r.mu.Lock()
		quiet := time.Since(r.lastEvent)
		r.mu.Unlock()
		if quiet >= 100*time.Millisecond {
			return true
		}
		time.Sleep(100*time.Millisecond - quiet)
	}
	return false
}

// visibility sets every sink-stamped window's visible time and returns
// how many results the firehose never delivered. The serving tier
// publishes results in swap batches that are contiguous runs of its
// shard's sink order, and a live subscription always receives the
// first result of a batch; a result without a frame therefore became
// visible with the batch of the closest earlier result that has one —
// provided that frame arrived after the result was made (its At
// stamp, set before any sink sees it), or it belongs to an earlier
// batch and the result never became visible. (Every batch should
// deliver all of its results; the ones it drops are counted, not
// hidden.)
func (r *recorder) visibility() (swallowed int, problems []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	byShard := make(map[string][]*winRec)
	for _, w := range r.wins {
		if w.results > 0 {
			byShard[w.shard] = append(byShard[w.shard], w)
		}
	}
	for shard, ws := range byShard {
		sort.Slice(ws, func(a, b int) bool { return ws[a].emitIdx < ws[b].emitIdx })
		var batch time.Time
		for _, w := range ws {
			switch {
			case w.frames > 0:
				batch, w.visible = w.frame, w.frame
			case w.result.Estimate == nil:
				// Failed windows need not be watched.
			case batch.IsZero():
				problems = append(problems, fmt.Sprintf("shard %s: result %s/%d has no frame and no earlier batch frame", shard, w.result.EPC, w.result.Seq))
			case batch.Before(w.result.At):
				problems = append(problems, fmt.Sprintf("shard %s: result %s/%d has no frame, and the last earlier frame arrived %v before it was made",
					shard, w.result.EPC, w.result.Seq, w.result.At.Sub(batch)))
			default:
				w.visible = batch
				swallowed++
			}
		}
	}
	return swallowed, problems
}

// summary counts sink arrivals and frames so far, for diagnostics.
func (r *recorder) summary() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var results, frames int
	for _, w := range r.wins {
		results += w.results
		frames += w.frames
	}
	return fmt.Sprintf("%d results at the sinks, %d frames on the firehose, %d windows", results, frames, len(r.wins))
}
