package router

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rfprism/internal/ingest"
	"rfprism/internal/serve"
	"rfprism/internal/sim"
)

// ClusterConfig builds a local N-shard cluster: N in-process rfprismd
// daemons, each serving the full single-daemon HTTP API on its own
// loopback listener, fronted by one Router. It exists for the
// `rfprism-router -local` mode, the conformance suite and the loadgen
// harness — production runs separate rfprismd processes and registers
// them over /admin/shards.
type ClusterConfig struct {
	// Shards is the initial shard count (default 3). Shards are named
	// s0, s1, …
	Shards int
	// Dir, when set, gives every shard a crash-safe journal under
	// Dir/<shard-id>/journal. Empty means journal-less shards.
	Dir string
	// NewProcessor builds one shard's solving backend. Required.
	NewProcessor func(shardID string) ingest.Processor
	// NewSinks builds one shard's extra result sinks; the snapshot
	// store behind GET /v1/tags always follows them. Optional.
	NewSinks func(shardID string) []ingest.Sink
	// Daemon is the per-shard daemon config template; Journal and
	// Metrics are overridden per shard.
	Daemon ingest.Config
	// Router tunes the fronting router.
	Router Config
	// RingDepth is each shard's per-tag result history depth
	// (default 16).
	RingDepth int
}

func (c *ClusterConfig) defaults() error {
	if c.Shards <= 0 {
		c.Shards = 3
	}
	if c.NewProcessor == nil {
		return fmt.Errorf("router: ClusterConfig.NewProcessor is required")
	}
	if c.RingDepth <= 0 {
		c.RingDepth = 16
	}
	return nil
}

// localShard is one in-process daemon + HTTP server.
type localShard struct {
	id     string
	dir    string // journal dir ("" without journals)
	daemon *ingest.Daemon
	store  *serve.Store
	ln     net.Listener
	srv    *http.Server
	done   chan struct{} // closed when Serve returns
}

// Cluster owns a local shard fleet and the Router in front of it, and
// implements the membership changes the bare Router leaves to the
// operator: adding a shard drains the remapped EPC sessions from their
// old owners into the new one, and removing a shard hands its open
// sessions (or, for a dead shard, its journal's unserved tail) to the
// survivors.
type Cluster struct {
	cfg ClusterConfig
	rt  *Router

	mu     sync.Mutex
	shards map[string]*localShard
	nextID int
}

// NewCluster starts the initial shards and registers them with a new
// Router.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, rt: New(cfg.Router), shards: make(map[string]*localShard)}
	for i := 0; i < cfg.Shards; i++ {
		if _, err := c.AddShard(context.Background()); err != nil {
			_ = c.Close(context.Background())
			return nil, err
		}
	}
	return c, nil
}

// Router returns the fronting router.
func (c *Cluster) Router() *Router { return c.rt }

// Handler returns the router's HTTP handler.
func (c *Cluster) Handler() http.Handler { return c.rt.Handler() }

// ShardIDs lists the live shard IDs, sorted.
func (c *Cluster) ShardIDs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.shards))
	for id := range c.shards {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ShardDaemon returns one shard's daemon (tests and diagnostics).
func (c *Cluster) ShardDaemon(id string) *ingest.Daemon {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.shards[id]; s != nil {
		return s.daemon
	}
	return nil
}

// ShardURL returns one shard's base URL ("" for an unknown shard).
func (c *Cluster) ShardURL(id string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.shards[id]; s != nil {
		return "http://" + s.ln.Addr().String()
	}
	return ""
}

// startShard builds and serves one shard.
func (c *Cluster) startShard(id string) (*localShard, error) {
	s := &localShard{id: id, done: make(chan struct{})}
	dcfg := c.cfg.Daemon
	dcfg.Metrics = nil // each shard gets its own registry
	if c.cfg.Dir != "" {
		s.dir = filepath.Join(c.cfg.Dir, id, "journal")
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, err
		}
		j, err := ingest.OpenJournal(ingest.JournalConfig{Dir: s.dir})
		if err != nil {
			return nil, fmt.Errorf("router: shard %s journal: %w", id, err)
		}
		dcfg.Journal = j
	}
	// Each shard serves reads from its own epoch-swapped snapshot
	// store, so SSE/long-poll work per shard and through the router's
	// merge. The store goes last: it publishes at once, so only then
	// do the NewSinks hooks see each result before it can be read.
	s.store = serve.NewStore(serve.StoreConfig{History: c.cfg.RingDepth})
	var sinks []ingest.Sink
	if c.cfg.NewSinks != nil {
		sinks = append(sinks, c.cfg.NewSinks(id)...)
	}
	sinks = append(sinks, s.store)
	s.daemon = ingest.NewDaemon(c.cfg.NewProcessor(id), dcfg, sinks...)
	if dcfg.Journal != nil {
		if _, err := s.daemon.Recover(); err != nil {
			_ = s.daemon.Shutdown(context.Background())
			return nil, fmt.Errorf("router: shard %s recover: %w", id, err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.daemon.Shutdown(context.Background())
		return nil, err
	}
	s.ln = ln
	s.srv = &http.Server{
		Handler: serve.NewServer(s.store, nil, dcfg.Logger).
			Wrap(ingest.NewServer(s.daemon).Handler()),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// AddShard grows the ring by one shard and migrates the remapped EPC
// sessions into it: after the new shard joins, every open session in
// an old shard whose EPC now belongs to the newcomer is extracted and
// re-offered there, so no EPC's window straddles the membership
// change. (The ring joins first — a brief overlap where fresh reports
// for a remapped EPC reach the new shard before its old session tail
// does is harmless: the re-offered readings merge into the same open
// session, and window coverage does not depend on intra-window order.)
func (c *Cluster) AddShard(ctx context.Context) (string, error) {
	c.mu.Lock()
	id := fmt.Sprintf("s%d", c.nextID)
	c.nextID++
	c.mu.Unlock()

	s, err := c.startShard(id)
	if err != nil {
		return "", err
	}
	if err := c.rt.AddShard(id, "http://"+s.ln.Addr().String()); err != nil {
		_ = s.daemon.Shutdown(ctx)
		_ = s.srv.Close()
		return "", err
	}
	c.mu.Lock()
	old := make([]*localShard, 0, len(c.shards))
	for _, o := range c.shards {
		old = append(old, o)
	}
	c.shards[id] = s
	c.mu.Unlock()

	movedTo := func(epc string) bool {
		owner, ok := c.rt.Owner(epc)
		return ok && owner.ID == id
	}
	for _, o := range old {
		for _, hs := range o.daemon.HandoffSessions(movedTo) {
			if err := c.reoffer(ctx, hs.Readings); err != nil {
				return id, fmt.Errorf("router: handoff %s→%s: %w", o.id, id, err)
			}
		}
	}
	return id, nil
}

// RemoveShard retires a shard cleanly: it leaves the ring (stopping
// new traffic), its open sessions are extracted, the daemon drains and
// shuts down (solving its already-closed windows), and the extracted
// sessions are re-offered to their new owners. The shard's journal
// directory stays on disk but is never recovered — the handed-off
// state now lives in the survivors' journals.
func (c *Cluster) RemoveShard(ctx context.Context, id string) error {
	c.mu.Lock()
	s := c.shards[id]
	delete(c.shards, id)
	c.mu.Unlock()
	if s == nil {
		return fmt.Errorf("router: unknown shard %q", id)
	}
	if err := c.rt.RemoveShard(id); err != nil {
		return err
	}
	sessions := s.daemon.HandoffSessions(nil)
	errShut := s.daemon.Shutdown(ctx)
	_ = s.srv.Close()
	<-s.done
	var errs []error
	if errShut != nil {
		errs = append(errs, errShut)
	}
	for _, hs := range sessions {
		if err := c.reoffer(ctx, hs.Readings); err != nil {
			errs = append(errs, fmt.Errorf("router: handoff %s(%s): %w", id, hs.EPC, err))
			break
		}
	}
	return errors.Join(errs...)
}

// RemoveShardDead drops a shard that died without draining (the chaos
// path): it leaves the ring, its server is torn down, and its
// journal's unserved tail — every retained report not covered by the
// emission ledger — is replayed into the survivors through the ring.
// This is the cluster analogue of single-daemon Recover: the same
// served-span suppression, but the reports re-home instead of
// rebuilding locally.
func (c *Cluster) RemoveShardDead(ctx context.Context, id string) (reoffered, suppressed int, err error) {
	c.mu.Lock()
	s := c.shards[id]
	delete(c.shards, id)
	c.mu.Unlock()
	if s == nil {
		return 0, 0, fmt.Errorf("router: unknown shard %q", id)
	}
	if err := c.rt.RemoveShard(id); err != nil {
		return 0, 0, err
	}
	// Tear the shard down hard: no drain, open sessions are abandoned
	// the way a SIGKILL would abandon them. The journal holds the
	// truth.
	_ = s.srv.Close()
	<-s.done
	s.daemon.Kill()
	if s.dir == "" {
		return 0, 0, fmt.Errorf("router: shard %q has no journal; its unserved state is unrecoverable", id)
	}
	return c.ReofferJournal(ctx, s.dir)
}

// ReofferJournal replays a dead shard's journal directory into the
// cluster: unserved reports re-enter through the ring (each to its
// current owner), served reports are suppressed by the emission
// ledger's spans. The crashtest harness calls this against the journal
// of a SIGKILLed child process.
func (c *Cluster) ReofferJournal(ctx context.Context, dir string) (reoffered, suppressed int, err error) {
	j, err := ingest.OpenJournal(ingest.JournalConfig{Dir: dir})
	if err != nil {
		return 0, 0, err
	}
	defer j.Close()
	live, suppressed, err := ingest.UnservedReports(j)
	if err != nil {
		return 0, suppressed, err
	}
	c.rt.met.HandoffSuppressed.Add(int64(suppressed))
	if err := c.reoffer(ctx, live); err != nil {
		return reoffered, suppressed, err
	}
	return len(live), suppressed, nil
}

// reoffer routes readings to their current ring owners' daemons
// directly (no HTTP round-trip — the cluster holds the handles),
// honoring backpressure per shard.
func (c *Cluster) reoffer(ctx context.Context, readings []sim.Reading) error {
	for _, rd := range readings {
		owner, ok := c.rt.Owner(rd.EPC)
		if !ok {
			return fmt.Errorf("router: no shard owns %s", rd.EPC)
		}
		c.mu.Lock()
		s := c.shards[owner.ID]
		c.mu.Unlock()
		if s == nil {
			return fmt.Errorf("router: ring owner %s is not a local shard", owner.ID)
		}
		for {
			err := s.daemon.Offer(rd)
			if err == nil {
				c.rt.met.HandoffReoffered.Inc()
				break
			}
			if !errors.Is(err, ingest.ErrBusy) {
				return fmt.Errorf("router: reoffer to %s: %w", owner.ID, err)
			}
			t := time.NewTimer(s.daemon.RetryAfter())
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		}
	}
	return nil
}

// Close drains every shard and stops its server. Idempotent per shard.
func (c *Cluster) Close(ctx context.Context) error {
	c.mu.Lock()
	shards := make([]*localShard, 0, len(c.shards))
	for _, s := range c.shards {
		shards = append(shards, s)
	}
	c.shards = make(map[string]*localShard)
	c.mu.Unlock()
	var errs []error
	for _, s := range shards {
		_ = c.rt.RemoveShard(s.id)
		if err := s.daemon.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("shard %s: %w", s.id, err))
		}
		_ = s.srv.Close()
		<-s.done
	}
	return errors.Join(errs...)
}
