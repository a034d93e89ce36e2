// Package serve is the read-side serving tier: it decouples the query
// surface (GET /v1/tags, long-poll, SSE subscriptions) from the ingest
// and solver hot path so the two scale independently.
//
// The centerpiece is Store, an epoch-swapped copy-on-write snapshot
// store. The solver's result loop publishes TagResults into a pending
// generation (a mutex-guarded append — the only synchronization the
// write path ever takes) and wakes a background swapper, which folds
// everything pending into an immutable Snapshot and installs it with a
// single atomic pointer store. Readers load the pointer and walk plain
// immutable maps and slices: the read path takes zero locks, so a
// hundred thousand concurrent pollers cannot contend with Emit.
//
// Every published result gets its own monotonic epoch. Epochs are the
// subscription currency: long-poll (?wait&since=) and SSE
// (Last-Event-ID) clients resume from the epoch they last saw, served
// either from the snapshot's bounded recent-batch window or via the
// Hub, which fans each swap's batch out to live subscribers (hub.go).
package serve

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rfprism/internal/ingest"
)

// StoreConfig tunes the snapshot store. The zero value gets serving
// defaults.
type StoreConfig struct {
	// History is the number of results kept per tag and served by
	// GET /v1/tags/{epc} (default 16, minimum 1).
	History int
	// RecentEpochs is how many swap batches the snapshot retains for
	// since=<epoch> catch-up reads (default 64). A client further
	// behind than the window is told to resync from the full snapshot.
	RecentEpochs int
	// SubscriberBuffer is the per-subscriber queue depth handed to the
	// Hub (default 32). A subscriber that falls this far behind is
	// evicted with DropSlowConsumer.
	SubscriberBuffer int
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (c *StoreConfig) defaults() {
	if c.History < 1 {
		c.History = 16
	}
	if c.RecentEpochs <= 0 {
		c.RecentEpochs = 64
	}
	if c.SubscriberBuffer <= 0 {
		c.SubscriberBuffer = 32
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// tagState is one tag's immutable serving state inside a snapshot.
// Once published it is never mutated: updates build a replacement.
type tagState struct {
	hist  []ingest.TagResult // oldest first; immutable
	epoch uint64             // epoch of the newest result in hist
}

// EpochBatch is the set of results that became visible in one swap.
// Each result has its own epoch: Results[i] is First+i.
type EpochBatch struct {
	First   uint64
	Results []ingest.TagResult // immutable; do not mutate
}

// Snapshot is one immutable, atomically-published generation of tag
// state. Every accessor is safe for unlimited concurrent use without
// any synchronization — nothing reachable from a Snapshot is ever
// written after publication.
type Snapshot struct {
	epoch  uint64
	at     time.Time
	tags   map[string]*tagState
	epcs   []string     // sorted; shared across snapshots — read-only
	recent []EpochBatch // ascending epoch; bounded by RecentEpochs
}

// Epoch returns the epoch of the newest result the snapshot holds
// (0 = empty store).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// At returns the wall time the snapshot was published.
func (s *Snapshot) At() time.Time { return s.at }

// Len returns the number of known tags.
func (s *Snapshot) Len() int { return len(s.tags) }

// Latest returns a tag's most recent result and its epoch.
func (s *Snapshot) Latest(epc string) (ingest.TagResult, uint64, bool) {
	ts := s.tags[epc]
	if ts == nil || len(ts.hist) == 0 {
		return ingest.TagResult{}, 0, false
	}
	return ts.hist[len(ts.hist)-1], ts.epoch, true
}

// History returns a tag's buffered results, oldest first. The slice is
// immutable and shared with the snapshot — callers must not mutate it.
func (s *Snapshot) History(epc string) []ingest.TagResult {
	ts := s.tags[epc]
	if ts == nil {
		return nil
	}
	return ts.hist
}

// TagEpoch returns the epoch of a tag's newest result (0 when unknown).
func (s *Snapshot) TagEpoch(epc string) uint64 {
	if ts := s.tags[epc]; ts != nil {
		return ts.epoch
	}
	return 0
}

// EPCs returns the sorted tag list. The slice is shared with the
// snapshot — callers must not mutate it.
func (s *Snapshot) EPCs() []string { return s.epcs }

// Since returns exactly the results with an epoch past since, as
// batches oldest first; a batch since falls inside is trimmed to its
// newer results. ok is false when since is older than the retained
// window — the caller must resync from the full snapshot instead.
func (s *Snapshot) Since(since uint64) ([]EpochBatch, bool) {
	if since >= s.epoch {
		return nil, true
	}
	i := len(s.recent) - 1 // the batch holding epoch since+1
	for i >= 0 && s.recent[i].First > since+1 {
		i--
	}
	if i < 0 {
		return nil, false
	}
	out := s.recent[i:]
	if skip := since + 1 - out[0].First; skip > 0 {
		// Trim a copy: the window is shared with later snapshots.
		out = append([]EpochBatch{{First: since + 1, Results: out[0].Results[skip:]}}, out[1:]...)
	}
	return out, true
}

// Store is the epoch-swapped snapshot store. It implements ingest.Sink
// (the daemon's result loop publishes into the pending generation);
// Server reads it through Snapshot, WaitTag (long-poll) and the Hub
// (SSE). NewStore starts the swapper; Close stops it.
type Store struct {
	cfg StoreConfig
	hub *Hub

	cur atomic.Pointer[Snapshot]

	mu      sync.Mutex
	pending []ingest.TagResult

	wake chan struct{}
	stop chan struct{}
	loop sync.WaitGroup // the swap loop, when started

	closeOnce sync.Once
	swaps     atomic.Int64
	published atomic.Int64
	longpolls [2]atomic.Int64 // [changed, timeout]
}

// NewStore builds a store and starts its swap loop.
func NewStore(cfg StoreConfig) *Store {
	st := newStore(cfg)
	st.loop.Add(1)
	go st.swapLoop()
	return st
}

// newStore builds a store without its swap loop, so results stay
// pending until swap or Close publishes them (tests).
func newStore(cfg StoreConfig) *Store {
	cfg.defaults()
	st := &Store{
		cfg:  cfg,
		hub:  NewHub(),
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
	st.cur.Store(&Snapshot{at: cfg.Now(), tags: map[string]*tagState{}})
	return st
}

// Hub returns the subscription hub fed by this store's swaps.
func (st *Store) Hub() *Hub { return st.hub }

// Snapshot returns the current immutable generation. The call is a
// single atomic pointer load — it can never block a writer and no
// writer can ever block it.
func (st *Store) Snapshot() *Snapshot { return st.cur.Load() }

// Swaps returns the number of snapshot swaps published.
func (st *Store) Swaps() int64 { return st.swaps.Load() }

// Published returns the number of results made visible.
func (st *Store) Published() int64 { return st.published.Load() }

// LongPolls returns the long-poll outcome counters.
func (st *Store) LongPolls() (changed, timeout int64) {
	return st.longpolls[0].Load(), st.longpolls[1].Load()
}

// Emit implements ingest.Sink: the result joins the pending generation
// and wakes the swapper, so it becomes visible with the next swap. The
// solver-path cost is one short mutex hold, an append and a
// non-blocking send — snapshot construction always happens on the
// swapper goroutine.
func (st *Store) Emit(r ingest.TagResult) error {
	st.mu.Lock()
	st.pending = append(st.pending, r)
	st.mu.Unlock()
	select {
	case st.wake <- struct{}{}:
	default: // a wake is already queued; that swap takes this result too
	}
	return nil
}

// Close implements ingest.Sink: it publishes any pending results,
// stops the swapper and drops every subscriber with DropShutdown.
// Idempotent.
func (st *Store) Close() error {
	st.closeOnce.Do(func() {
		close(st.stop)
		st.loop.Wait()
		st.swap() // final flush so a drain's tail is visible
		st.hub.Close()
	})
	return nil
}

// swapLoop publishes on every wake. Results emitted while a swap runs
// queue one wake and are taken together by the next swap, so an idle
// store publishes a result within one swap's time and a busy one
// batches by itself.
func (st *Store) swapLoop() {
	defer st.loop.Done()
	for {
		select {
		case <-st.wake:
			st.swap()
		case <-st.stop:
			return
		}
	}
}

// swap takes the pending generation and publishes it as a new
// snapshot: a shallow copy of the tag map with copy-on-write per-tag
// history, one new epoch per result, and the batch appended to the
// recent window. The installed snapshot and everything reachable from
// it are immutable from here on.
func (st *Store) swap() {
	st.mu.Lock()
	batch := st.pending
	st.pending = nil
	st.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	old := st.cur.Load()
	first := old.epoch + 1

	tags := make(map[string]*tagState, len(old.tags)+len(batch))
	for epc, ts := range old.tags {
		tags[epc] = ts
	}
	newEPC := false
	for i, r := range batch {
		prev := tags[r.EPC]
		var hist []ingest.TagResult
		if prev != nil {
			hist = prev.hist
		} else {
			newEPC = true
		}
		// Copy-on-append: the previous snapshot's slice stays intact
		// for readers still holding it.
		next := make([]ingest.TagResult, 0, min(len(hist)+1, st.cfg.History))
		if keep := st.cfg.History - 1; len(hist) > keep {
			hist = hist[len(hist)-keep:]
		}
		next = append(next, hist...)
		next = append(next, r)
		tags[r.EPC] = &tagState{hist: next, epoch: first + uint64(i)}
	}

	epcs := old.epcs
	if newEPC {
		epcs = sortedEPCs(tags)
	}

	recent := make([]EpochBatch, 0, len(old.recent)+1)
	recent = append(recent, old.recent...)
	recent = append(recent, EpochBatch{First: first, Results: batch})
	if len(recent) > st.cfg.RecentEpochs {
		recent = recent[len(recent)-st.cfg.RecentEpochs:]
	}

	st.cur.Store(&Snapshot{
		epoch:  first + uint64(len(batch)) - 1,
		at:     st.cfg.Now(),
		tags:   tags,
		epcs:   epcs,
		recent: recent,
	})
	st.swaps.Add(1)
	st.published.Add(int64(len(batch)))
	// Publish after the swap so a subscriber that checks the snapshot
	// before waiting can never miss an epoch: anything it does not see
	// in the snapshot will still arrive on its channel.
	st.hub.Publish(first, batch)
}

// Epoch returns the current snapshot's epoch.
func (st *Store) Epoch() uint64 { return st.Snapshot().Epoch() }

// --- long-poll ------------------------------------------------------

// maxLongPollWait caps one long-poll round so an abandoned connection
// cannot pin a subscription forever.
const maxLongPollWait = 5 * time.Minute

// WaitTag is the long-poll primitive: it blocks until epc has a
// result newer than since, wait elapses, or ctx ends. On a change it
// returns the newest result and its epoch with ok=true; otherwise the
// current tag epoch with ok=false.
func (st *Store) WaitTag(ctx context.Context, epc string, since uint64, wait time.Duration) (ingest.TagResult, uint64, bool) {
	if wait <= 0 {
		wait = time.Millisecond
	}
	if wait > maxLongPollWait {
		wait = maxLongPollWait
	}
	if r, e, ok := st.newerThan(epc, since); ok {
		st.longpolls[0].Add(1)
		return r, e, true
	}
	sub := st.hub.Subscribe(Filter{EPC: epc}, st.cfg.SubscriberBuffer)
	defer st.hub.Unsubscribe(sub)
	// Re-check after subscribing: Publish runs after the swap, so a
	// result visible in the snapshot now is one the channel may have
	// missed, and anything newer will still be delivered.
	if r, e, ok := st.newerThan(epc, since); ok {
		st.longpolls[0].Add(1)
		return r, e, true
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				// Evicted (shutdown or a pathological backlog): answer
				// from the snapshot rather than erroring the poll.
				if r, e, ok := st.newerThan(epc, since); ok {
					st.longpolls[0].Add(1)
					return r, e, true
				}
				st.longpolls[1].Add(1)
				return ingest.TagResult{}, st.Snapshot().TagEpoch(epc), false
			}
			if ev.Epoch > since {
				st.longpolls[0].Add(1)
				return ev.Result, ev.Epoch, true
			}
		case <-t.C:
			st.longpolls[1].Add(1)
			return ingest.TagResult{}, st.Snapshot().TagEpoch(epc), false
		case <-ctx.Done():
			st.longpolls[1].Add(1)
			return ingest.TagResult{}, st.Snapshot().TagEpoch(epc), false
		}
	}
}

func (st *Store) newerThan(epc string, since uint64) (ingest.TagResult, uint64, bool) {
	snap := st.Snapshot()
	if r, e, ok := snap.Latest(epc); ok && e > since {
		return r, e, true
	}
	return ingest.TagResult{}, 0, false
}

func sortedEPCs(tags map[string]*tagState) []string {
	out := make([]string, 0, len(tags))
	for epc := range tags {
		out = append(out, epc)
	}
	// Full re-sort; tag counts can be large but swaps that change
	// membership become rare once the population has been seen.
	sort.Strings(out)
	return out
}
