package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"

	"rfprism"
	"rfprism/internal/sim"
)

// ErrBusy is returned by Offer when the window queue is full: the
// caller should back off (HTTP maps it to 429 + Retry-After). Reports
// are refused outright under backpressure — accepting them would only
// move the bulge from the bounded queue into the sessionizer buffers.
var ErrBusy = errors.New("ingest: window queue full")

// ErrDraining is returned by Offer once shutdown has begun (HTTP maps
// it to 503).
var ErrDraining = errors.New("ingest: daemon is draining")

// Processor is the solving backend: rfprism.System satisfies it, and
// tests substitute stubs to exercise queue mechanics without solves.
type Processor interface {
	ProcessStream(ctx context.Context, in <-chan rfprism.Window) <-chan rfprism.WindowResult
}

// Config tunes the daemon. The zero value gets serving defaults.
type Config struct {
	// Sessionizer tunes window assembly.
	Sessionizer SessionizerConfig
	// QueueSize bounds the closed-window queue between the sessionizer
	// and the solver pool. Default 64.
	QueueSize int
	// ExpireEvery is the deadline-sweep period. Default 250 ms.
	ExpireEvery time.Duration
	// RetryAfter is the pause advertised to backpressured clients
	// (the Retry-After header, and the replay helper's retry pause).
	// Default 1 s.
	RetryAfter time.Duration
	// Journal, when set, makes the daemon crash-safe: every admitted
	// report is appended to the write-ahead journal before it enters
	// the sessionizer, results are recorded in the journal's emission
	// ledger, and Recover rebuilds state after a restart. The daemon
	// owns the journal from here on and closes it on Shutdown.
	Journal *Journal
	// Breaker tunes the repeated-panic circuit breaker.
	Breaker BreakerConfig
	// Logger receives the daemon's structured events: journal and
	// recovery milestones, breaker trips, solver panics, shutdown.
	// Default: discard.
	Logger *slog.Logger
	// Metrics, when set, is the instrument set the daemon records into
	// instead of building its own — callers share one registry between
	// the daemon and the pipeline's stage tracer (Metrics implements
	// rfprism.Tracer).
	Metrics *Metrics
	// Now overrides the clock (tests). Default time.Now.
	Now func() time.Time
}

func (c *Config) defaults() {
	c.Sessionizer.defaults()
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.ExpireEvery <= 0 {
		c.ExpireEvery = 250 * time.Millisecond
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics(c.Now())
	}
}

// windowMeta carries a closed window's assembly metadata from enqueue
// to result, keyed by the stream index ProcessStream assigns.
type windowMeta struct {
	cw       ClosedWindow
	enqueued time.Time
}

// Daemon is the running ingestion pipeline: reports in via Offer,
// windows through the sessionizer and the bounded queue into the
// Processor, results out to the sinks. NewDaemon starts it; Shutdown
// drains it.
type Daemon struct {
	cfg     Config
	met     *Metrics
	log     *slog.Logger
	sinks   []Sink
	journal *Journal
	breaker *breaker

	// recovery is the startup replay summary (zero until Recover ran).
	recovery RecoveryInfo

	// mu serializes report ingestion, the deadline sweep and queue
	// admission; the index counter makes enqueue order equal
	// ProcessStream's arrival order.
	mu       sync.Mutex
	sess     *Sessionizer
	draining bool
	nextIdx  int
	// replayPin, when pinned, is the lowest journal seq owned by
	// reports only a future restart's replay can serve — breaker-shed
	// reports and the sessions aborted on their behalf. Retention must
	// never delete segments at or above it; it is cleared only by the
	// process ending (the next run's Recover takes custody).
	replayPin    uint64
	replayPinned bool

	metaMu sync.Mutex
	meta   map[int]windowMeta

	windows chan rfprism.Window

	procCancel  context.CancelFunc
	expireStop  chan struct{}
	expireDone  chan struct{}
	resultsDone chan struct{}

	shutdownOnce sync.Once
	shutdownErr  error
}

// NewDaemon builds and starts a daemon over proc, delivering results
// to sinks in order. The daemon runs until Shutdown.
func NewDaemon(proc Processor, cfg Config, sinks ...Sink) *Daemon {
	cfg.defaults()
	d := &Daemon{
		cfg:         cfg,
		met:         cfg.Metrics,
		log:         cfg.Logger,
		sinks:       sinks,
		journal:     cfg.Journal,
		breaker:     newBreaker(cfg.Breaker),
		sess:        NewSessionizer(cfg.Sessionizer),
		meta:        make(map[int]windowMeta),
		windows:     make(chan rfprism.Window, cfg.QueueSize),
		expireStop:  make(chan struct{}),
		expireDone:  make(chan struct{}),
		resultsDone: make(chan struct{}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.procCancel = cancel
	results := proc.ProcessStream(ctx, d.windows)
	go d.resultLoop(results)
	go d.expireLoop()
	return d
}

// Metrics exposes the daemon's counters.
func (d *Daemon) Metrics() *Metrics { return d.met }

// Logger exposes the daemon's structured logger (never nil).
func (d *Daemon) Logger() *slog.Logger { return d.log }

// RetryAfter is the advertised backpressure pause.
func (d *Daemon) RetryAfter() time.Duration { return d.cfg.RetryAfter }

// Gauges samples the point-in-time queue, sessionizer, breaker and
// journal state.
func (d *Daemon) Gauges() Gauges {
	d.mu.Lock()
	g := Gauges{
		QueueDepth:       len(d.windows),
		QueueCap:         cap(d.windows),
		OpenSessions:     d.sess.Open(),
		BufferedReadings: d.sess.Buffered(),
		Draining:         d.draining,
		BreakerTripped:   d.breaker.isTripped(d.cfg.Now()),
	}
	d.mu.Unlock()
	if d.journal != nil {
		g.JournalEnabled = true
		g.JournalNextSeq = d.journal.NextSeq()
		g.JournalSyncedSeq = d.journal.SyncedSeq()
		g.JournalSegments = d.journal.Segments()
	}
	return g
}

// Recovery returns the startup replay summary (the zero value when the
// daemon started fresh or has no journal).
func (d *Daemon) Recovery() RecoveryInfo { return d.recovery }

// Offer ingests one raw report: OfferBatch of that one report.
func (d *Daemon) Offer(rd sim.Reading) error {
	_, err := d.OfferBatch([]sim.Reading{rd})
	return err
}

// OfferBatch ingests raw reports in order, under one hold of the
// daemon lock and at one clock reading, and returns how many it took.
// It stops at the first refusal and returns its error, so the reports
// taken are always a prefix of rds: ErrBusy when the window queue is
// full (back off and retry the rest), ErrDraining once shutdown has
// begun, or a validation error for a malformed report. A taken report
// is owned by the daemon and will reach the solver in some window.
func (d *Daemon) OfferBatch(rds []sim.Reading) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return 0, ErrDraining
	}
	now := d.cfg.Now()
	for i, rd := range rds {
		err := ValidateReading(rd)
		switch {
		case err != nil:
			d.met.ReportsRejected.Add(1)
		// The solver goroutine trips the breaker without d.mu, so
		// each report reads it afresh.
		case d.breaker.isTripped(now):
			err = d.shedLocked(rd)
		default:
			err = d.admitLocked(rd, now)
		}
		if err != nil {
			return i, err
		}
	}
	return len(rds), nil
}

// shedLocked is admission in the breaker's shed-and-journal-only
// degraded mode: the solver is known poisoned, so nothing reaches it,
// but with a journal the report is still made durable — a restarted
// (fixed) daemon recovers and solves it. Without a journal the report
// is shed. Callers hold d.mu.
func (d *Daemon) shedLocked(rd sim.Reading) error {
	if d.journal != nil {
		// If this EPC still has a live session, retire it un-emitted
		// first: replay regroups reports purely by journal order, so
		// a session left open here would swallow the shed report into
		// a window the ledger may later suppress. Aborting writes no
		// ledger line, so the session's reports and the shed report
		// are all recovered — together — by the next restart.
		if first, _, ok := d.sess.Abort(rd.EPC); ok {
			d.met.SessionsAborted.Add(1)
			d.pinReplayLocked(first)
			d.log.Warn("session aborted into replay custody", "epc", rd.EPC, "firstSeq", first)
		}
		seq, rotated, err := d.journal.Append(rd)
		if err != nil {
			d.met.JournalErrors.Add(1)
			d.log.Error("journal append failed", "epc", rd.EPC, "err", err)
			return err
		}
		d.pinReplayLocked(seq)
		if rotated {
			d.retainLocked()
		}
	}
	d.met.ReportsJournalOnly.Add(1)
	return nil
}

// admitLocked journals a validated report and hands it to the
// sessionizer, unless the window queue is full. Callers hold d.mu.
func (d *Daemon) admitLocked(rd sim.Reading, now time.Time) error {
	if len(d.windows) == cap(d.windows) {
		d.met.ReportsBackpressured.Add(1)
		return ErrBusy
	}
	var seq uint64
	rotated := false
	if d.journal != nil {
		var err error
		seq, rotated, err = d.journal.Append(rd)
		if err != nil {
			// A report that cannot be made durable is refused: callers
			// were promised journaled-then-processed, not maybe.
			d.met.JournalErrors.Add(1)
			d.log.Error("journal append failed", "epc", rd.EPC, "err", err)
			return err
		}
	}
	before := d.sess.Discarded()
	cw, closed := d.sess.add(rd, seq, now)
	d.met.ReportsAccepted.Add(1)
	d.met.WindowsDiscarded.Add(int64(d.sess.Discarded() - before))
	if closed {
		d.enqueueLocked(cw)
	}
	if rotated {
		d.retainLocked()
	}
	return nil
}

// pinReplayLocked marks journal reports from seq on as replay-only:
// they can no longer be served by this process (breaker-shed, or
// aborted on a shed report's behalf) and must survive retention until
// a restart's Recover takes them. Callers hold d.mu.
func (d *Daemon) pinReplayLocked(seq uint64) {
	if !d.replayPinned || seq < d.replayPin {
		d.replayPin, d.replayPinned = seq, true
	}
}

// retainLocked prunes journal segments no open session, in-flight
// window or future replay still needs. Callers hold d.mu.
func (d *Daemon) retainLocked() {
	minNeeded := d.journal.NextSeq()
	if s, ok := d.sess.MinOpenSeq(); ok && s < minNeeded {
		minNeeded = s
	}
	if d.replayPinned && d.replayPin < minNeeded {
		minNeeded = d.replayPin
	}
	d.metaMu.Lock()
	for _, m := range d.meta {
		if m.cw.FirstSeq < minNeeded {
			minNeeded = m.cw.FirstSeq
		}
	}
	d.metaMu.Unlock()
	if err := d.journal.Retain(minNeeded); err != nil {
		d.met.JournalErrors.Add(1)
	}
}

// enqueueLocked queues a closed window. Callers hold d.mu and have
// verified there is room, so the send cannot block.
func (d *Daemon) enqueueLocked(cw ClosedWindow) {
	idx := d.nextIdx
	d.nextIdx++
	d.metaMu.Lock()
	d.meta[idx] = windowMeta{cw: cw, enqueued: d.cfg.Now()}
	d.metaMu.Unlock()
	d.met.WindowClosed(cw.Reason)
	d.windows <- rfprism.Window{Tag: cw.EPC, Readings: cw.Readings}
}

// expireLoop sweeps dwell deadlines. Expired windows that do not fit
// the queue are shed (counted): under saturation the freshest data is
// worth more than a stale partial window.
func (d *Daemon) expireLoop() {
	defer close(d.expireDone)
	t := time.NewTicker(d.cfg.ExpireEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			d.sweepExpired()
		case <-d.expireStop:
			return
		}
	}
}

func (d *Daemon) sweepExpired() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return
	}
	if d.breaker.isTripped(d.cfg.Now()) {
		// Tripped: nothing may reach the known-poisoned solver, and a
		// deadline close here would put a ledger line under an identity
		// that replay — which cannot see deadlines — would regroup with
		// any shed reports that follow. Sessions stay open: a cooldown
		// reset resumes them, a shed report for the same EPC aborts them
		// into replay custody, and shutdown drains whatever remains.
		return
	}
	before := d.sess.Discarded()
	expired := d.sess.Expire(d.cfg.Now())
	d.met.WindowsDiscarded.Add(int64(d.sess.Discarded() - before))
	for _, cw := range expired {
		if len(d.windows) == cap(d.windows) {
			d.met.WindowsShed.Add(1)
			continue
		}
		d.enqueueLocked(cw)
	}
}

// resultLoop fans completed windows out to the sinks and keeps the
// outcome counters.
func (d *Daemon) resultLoop(results <-chan rfprism.WindowResult) {
	defer close(d.resultsDone)
	for r := range results {
		d.metaMu.Lock()
		m, ok := d.meta[r.Index]
		d.metaMu.Unlock()
		if !ok {
			// Unreachable: every queued window has meta.
			continue
		}
		now := d.cfg.Now()
		latency := now.Sub(m.enqueued)
		d.met.ObserveLatency(latency)
		if r.Err != nil {
			d.met.ResultsErr.Add(1)
			d.log.Debug("window failed", "epc", r.Tag, "latency", latency, "err", r.Err)
		} else {
			d.met.ResultsOK.Add(1)
			d.log.Debug("window solved", "epc", r.Tag, "latency", latency, "attempts", r.Attempts())
		}
		if h := r.Health(); h != nil && h.Degraded {
			d.met.WindowsDegraded.Add(1)
			d.log.Info("window degraded", "epc", r.Tag, "health", h.String())
		}
		if errors.Is(r.Err, rfprism.ErrSolverPanic) {
			d.observePanic(m.cw, r.Err, now)
		}
		tr := makeTagResult(m.cw, r, now, latency)
		if tr.Confidence != nil {
			d.met.ObserveConfidence(tr.Confidence.RadialCI90, tr.Confidence.AmbiguityMargin)
		}
		if d.journal != nil {
			// The ledger line is the durable emission record: recovery
			// suppresses any window already written here, so it goes
			// down before the best-effort sinks see the result — and
			// only after the window's own reports are durable (SyncTo),
			// or a crash could keep the ledger line while losing the
			// reports behind it. If the journal cannot deliver that
			// ordering, skip the ledger line: recovery then re-solves
			// the window (at-least-once to sinks) instead of corrupting
			// the dedup record.
			if err := d.journal.SyncTo(m.cw.LastSeq); err != nil {
				d.met.JournalErrors.Add(1)
			} else if err := d.journal.AppendResult(tr); err != nil {
				d.met.JournalErrors.Add(1)
			}
		}
		// The meta entry is also the window's retention pin: it keeps
		// retainLocked from deleting the segments holding the window's
		// reports. Drop it only now, after the ledger line is down — in
		// the gap between delete and AppendResult a rotation-triggered
		// retention could otherwise unpin the reports, and a kill before
		// the ledger write would lose the window on both sides (nothing
		// to replay, nothing in the ledger).
		d.metaMu.Lock()
		delete(d.meta, r.Index)
		d.metaMu.Unlock()
		for _, s := range d.sinks {
			if err := s.Emit(tr); err != nil {
				d.met.SinkErrors.Add(1)
			}
		}
	}
}

// observePanic handles a window whose solve panicked: count it,
// quarantine the poisoned window for offline reproduction, and feed
// the circuit breaker.
func (d *Daemon) observePanic(cw ClosedWindow, err error, now time.Time) {
	d.met.SolverPanics.Add(1)
	d.log.Error("solver panic", "epc", cw.EPC, "firstSeq", cw.FirstSeq, "err", err)
	if d.journal != nil {
		report := err.Error()
		var pe *rfprism.SolverPanicError
		if errors.As(err, &pe) {
			report = fmt.Sprintf("%v\n\n%s", pe.Value, pe.Stack)
		}
		if qerr := d.journal.Quarantine(cw.Key(), cw.Readings, report); qerr != nil {
			d.met.JournalErrors.Add(1)
		} else {
			d.met.WindowsQuarantined.Add(1)
		}
	}
	if d.breaker.record(now) {
		d.met.BreakerTrips.Add(1)
		d.log.Warn("panic circuit breaker tripped: shed-and-journal-only mode", "epc", cw.EPC)
	}
}

// RecoveryInfo summarizes a startup journal replay.
type RecoveryInfo struct {
	// Ran reports whether Recover executed (it is false on a fresh
	// start or a journal-less daemon).
	Ran bool
	// Replay is the raw journal scan summary.
	Replay ReplayStats
	// Rejected counts journaled reports the sessionizer refused on
	// replay (possible only if validation rules tightened between
	// runs).
	Rejected int
	// Suppressed counts windows that re-closed during replay but were
	// already in the emission ledger — served before the crash, so
	// they are not solved again.
	Suppressed int
	// Requeued counts windows that closed during replay without a
	// ledger record — lost in flight at the crash — and were re-queued
	// for solving.
	Requeued int
	// OpenSessions is the number of per-EPC sessions rebuilt and left
	// open (their dwell deadline restarts at recovery time).
	OpenSessions int
	// ReplayedTo is the journal position recovery reached (the next
	// fresh report's sequence number).
	ReplayedTo uint64
}

// servedIndex answers "was this (EPC, seq) report already delivered?"
// from the emission ledger: per EPC, the sorted, disjoint
// [FirstSeq, LastSeq] spans of the served windows. Span membership is
// exact because a live session always holds the contiguous run of its
// EPC's journal positions — the daemon aborts a session rather than
// let it close across a breaker-shed gap.
type servedIndex struct {
	spans map[string][]servedSpan
	// counted tracks which served windows replay has already attributed
	// a suppression to, so a window is counted once, not per report.
	counted map[WindowKey]bool
}

type servedSpan struct{ first, last uint64 }

func newServedIndex(emitted map[WindowKey]uint64) *servedIndex {
	x := &servedIndex{
		spans:   make(map[string][]servedSpan, len(emitted)),
		counted: make(map[WindowKey]bool, len(emitted)),
	}
	for k, last := range emitted {
		if last < k.FirstSeq {
			// A ledger line from before LastSeq existed: the span is at
			// least the window's first report.
			last = k.FirstSeq
		}
		x.spans[k.EPC] = append(x.spans[k.EPC], servedSpan{first: k.FirstSeq, last: last})
	}
	for _, spans := range x.spans {
		sort.Slice(spans, func(a, b int) bool { return spans[a].first < spans[b].first })
	}
	return x
}

// lookup returns the identity of the served window containing (epc,
// seq), if any.
func (x *servedIndex) lookup(epc string, seq uint64) (WindowKey, bool) {
	spans := x.spans[epc]
	i := sort.Search(len(spans), func(i int) bool { return spans[i].last >= seq })
	if i < len(spans) && spans[i].first <= seq {
		return WindowKey{EPC: epc, FirstSeq: spans[i].first}, true
	}
	return WindowKey{}, false
}

// Recover rebuilds the daemon's state from the write-ahead journal
// after a restart: it replays every retained journaled report through
// the sessionizer, re-queues windows that closed without a durable
// emission record, suppresses windows the emission ledger proves were
// already served (idempotent replay keyed on (EPC, FirstSeq)), and
// leaves still-incomplete sessions open for fresh reports to finish.
//
// Call it once, after NewDaemon and before exposing Offer or HTTP —
// recovery assumes it is the only producer. A daemon without a journal
// returns the zero RecoveryInfo.
func (d *Daemon) Recover() (RecoveryInfo, error) {
	if d.journal == nil {
		return RecoveryInfo{}, nil
	}
	emitted, err := d.journal.EmittedSet()
	if err != nil {
		return RecoveryInfo{}, err
	}
	info := RecoveryInfo{Ran: true}
	var requeue []ClosedWindow
	now := d.cfg.Now()
	d.mu.Lock()
	served := newServedIndex(emitted)
	st, rerr := d.journal.Replay(func(seq uint64, rd sim.Reading) error {
		// Coverage and overflow closes are positional, so replay
		// reproduces them exactly — but the live run can also close a
		// window by deadline, drain or a breaker trip, which no amount
		// of re-feeding reports will reproduce. The ledger's
		// [FirstSeq, LastSeq] span records which reports each served
		// window really contained: a report inside any served span was
		// already delivered under that identity and is excised here,
		// while everything outside the spans regroups contiguously —
		// exactly the stream the live sessionizer saw. Without the span
		// test a rebuilt session could outgrow the window the ledger
		// knows and be suppressed with unserved reports inside it.
		if key, ok := served.lookup(rd.EPC, seq); ok {
			if !served.counted[key] {
				served.counted[key] = true
				info.Suppressed++
				d.met.WindowsSuppressed.Add(1)
			}
			return nil
		}
		cw, closed, err := d.sess.AddSeq(rd, seq, now)
		if err != nil {
			info.Rejected++
			return nil
		}
		if !closed {
			return nil
		}
		if _, ok := emitted[cw.Key()]; ok {
			// Unreachable with a span-bearing ledger (a served window's
			// first report is skipped above, so no session can rebuild
			// under its key); kept as the last line of defense against a
			// ledger written before LastSeq existed.
			info.Suppressed++
			d.met.WindowsSuppressed.Add(1)
			return nil
		}
		requeue = append(requeue, cw)
		return nil
	})
	// Defense in depth: no session may stay open under an identity the
	// ledger already holds — closing it later would emit a duplicate
	// key. With span skipping above this finds nothing.
	if dropped := d.sess.DropEmittedSessions(emitted); dropped > 0 {
		info.Suppressed += dropped
		d.met.WindowsSuppressed.Add(int64(dropped))
	}
	info.OpenSessions = d.sess.Open()
	d.mu.Unlock()
	info.Replay = st
	if rerr != nil {
		return info, rerr
	}
	// Re-queue lost windows with blocking sends: the solver pool is
	// already consuming, and Offer is not yet reachable, so this is the
	// only producer and cannot deadlock with queue capacity.
	for _, cw := range requeue {
		d.mu.Lock()
		idx := d.nextIdx
		d.nextIdx++
		d.mu.Unlock()
		d.metaMu.Lock()
		d.meta[idx] = windowMeta{cw: cw, enqueued: d.cfg.Now()}
		d.metaMu.Unlock()
		d.met.WindowClosed(cw.Reason)
		d.met.WindowsRecovered.Add(1)
		d.windows <- rfprism.Window{Tag: cw.EPC, Readings: cw.Readings}
		info.Requeued++
	}
	info.ReplayedTo = d.journal.NextSeq()
	d.recovery = info
	d.log.Info("journal recovery complete",
		"replayedReports", info.Replay.Reports, "replayedTo", info.ReplayedTo,
		"suppressed", info.Suppressed, "requeued", info.Requeued,
		"openSessions", info.OpenSessions, "rejected", info.Rejected)
	return info, nil
}

// Shutdown drains the daemon gracefully: new reports are refused
// (ErrDraining), the deadline sweeper stops, every open window is
// flushed through the solver (partial windows meeting the antenna
// floor included), and the call returns once the last result has
// reached the sinks. If ctx expires first, in-flight work is cancelled
// hard and ctx's error is returned. Shutdown is idempotent.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.shutdownOnce.Do(func() { d.shutdownErr = d.shutdown(ctx) })
	return d.shutdownErr
}

func (d *Daemon) shutdown(ctx context.Context) error {
	d.log.Info("shutdown: draining")
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
	close(d.expireStop)
	<-d.expireDone

	// With Offer refusing and the sweeper stopped, this goroutine is
	// the only producer left: flush the open sessions with blocking
	// sends (the solver is still consuming), then close the queue.
	d.mu.Lock()
	before := d.sess.Discarded()
	drained := d.sess.Drain(d.cfg.Now())
	d.met.WindowsDiscarded.Add(int64(d.sess.Discarded() - before))
	d.mu.Unlock()
	var err error
	for _, cw := range drained {
		idx := d.nextIdx
		d.nextIdx++
		d.metaMu.Lock()
		d.meta[idx] = windowMeta{cw: cw, enqueued: d.cfg.Now()}
		d.metaMu.Unlock()
		d.met.WindowClosed(cw.Reason)
		select {
		case d.windows <- rfprism.Window{Tag: cw.EPC, Readings: cw.Readings}:
		case <-ctx.Done():
			err = ctx.Err()
		}
		if err != nil {
			break
		}
	}
	close(d.windows)
	if err == nil {
		select {
		case <-d.resultsDone:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	if err != nil {
		// Hard stop: cancel in-flight solves and wait for the result
		// loop to observe the closed stream.
		d.procCancel()
		<-d.resultsDone
	}
	d.procCancel()
	var closeErrs []error
	for _, s := range d.sinks {
		if cerr := s.Close(); cerr != nil {
			closeErrs = append(closeErrs, cerr)
		}
	}
	if d.journal != nil {
		if cerr := d.journal.Close(); cerr != nil {
			closeErrs = append(closeErrs, cerr)
		}
	}
	if err != nil {
		d.log.Error("shutdown: drain aborted", "err", err)
		return fmt.Errorf("ingest: drain aborted: %w", err)
	}
	d.log.Info("shutdown: drained",
		"reports", d.met.ReportsAccepted.Load(),
		"resultsOK", d.met.ResultsOK.Load(), "resultsErr", d.met.ResultsErr.Load())
	return errors.Join(closeErrs...)
}

// Kill stops the daemon without draining: open sessions are abandoned
// un-emitted, in-flight solves are cancelled, and the journal is
// closed. This is the closest an in-process daemon comes to dying —
// afterwards the retained journal plus the emission ledger are the
// only truth, exactly the state Recover (or a cluster's dead-shard
// handoff) consumes. Kill and Shutdown share the once; whichever runs
// first wins.
func (d *Daemon) Kill() {
	d.shutdownOnce.Do(func() {
		d.log.Warn("killed: abandoning open sessions")
		d.mu.Lock()
		d.draining = true
		d.mu.Unlock()
		close(d.expireStop)
		<-d.expireDone
		// Cancel solves first, then close the queue: with draining set
		// and the sweeper stopped nothing else produces, so the close
		// cannot race a send. Results already in flight may still land
		// a ledger line — a real crash can be that lucky too.
		d.procCancel()
		close(d.windows)
		<-d.resultsDone
		if d.journal != nil {
			if err := d.journal.Close(); err != nil {
				d.met.JournalErrors.Add(1)
			}
		}
		d.shutdownErr = errors.New("ingest: daemon was killed")
	})
}

// ReplayReports feeds a recorded or simulated report stream through
// Offer, honoring backpressure: ErrBusy pauses for the daemon's
// advertised Retry-After and retries the same report. pace scales the
// stream's own timing (1 = real time, 0 = as fast as backpressure
// allows). It returns the number of reports accepted; malformed
// reports abort the replay.
func (d *Daemon) ReplayReports(ctx context.Context, reports []sim.Reading, pace float64) (int, error) {
	accepted := 0
	var prev time.Duration
	for _, rd := range reports {
		if pace > 0 && rd.T > prev {
			gap := time.Duration(float64(rd.T-prev) * pace)
			if !sleepInterruptible(ctx, gap) {
				return accepted, ctx.Err()
			}
		}
		prev = rd.T
		for {
			err := d.Offer(rd)
			if err == nil {
				accepted++
				break
			}
			if !errors.Is(err, ErrBusy) {
				return accepted, err
			}
			if !sleepInterruptible(ctx, d.cfg.RetryAfter) {
				return accepted, ctx.Err()
			}
		}
	}
	return accepted, nil
}

// sleepInterruptible pauses for dur unless ctx is cancelled first,
// reporting whether the full pause elapsed.
func sleepInterruptible(ctx context.Context, dur time.Duration) bool {
	if dur <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
