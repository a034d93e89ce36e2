package serve

import (
	"strings"
	"sync"
	"sync/atomic"

	"rfprism/internal/ingest"
)

// DropReason says why the hub closed a subscriber's channel.
type DropReason int32

const (
	// DropNone: the subscriber has not been dropped.
	DropNone DropReason = iota
	// DropSlowConsumer: the subscriber's queue was full when the hub
	// needed to deliver — it could not keep up with the swap rate.
	DropSlowConsumer
	// DropShutdown: the store is closing.
	DropShutdown
)

func (d DropReason) String() string {
	switch d {
	case DropNone:
		return "none"
	case DropSlowConsumer:
		return "slow_consumer"
	case DropShutdown:
		return "shutdown"
	default:
		return "unknown"
	}
}

// Event is one tag update fanned out to subscribers.
type Event struct {
	Epoch  uint64
	Result ingest.TagResult
}

// Filter selects which results a subscriber receives. Zero value =
// firehose (every result). EPC wins over Prefix when both are set.
type Filter struct {
	EPC    string // exact match
	Prefix string // EPC prefix match (firehose narrowing)
}

func (f Filter) matches(epc string) bool {
	if f.EPC != "" {
		return epc == f.EPC
	}
	if f.Prefix != "" {
		return strings.HasPrefix(epc, f.Prefix)
	}
	return true
}

// Subscriber is one registered consumer. Receive from C until it is
// closed, then consult Dropped for why. The hub never blocks on a
// subscriber: a full queue at delivery time evicts it.
type Subscriber struct {
	C      <-chan Event
	c      chan Event
	filter Filter
	drop   atomic.Int32
}

// Dropped reports why the channel was closed (DropNone while live).
func (s *Subscriber) Dropped() DropReason { return DropReason(s.drop.Load()) }

// Hub fans swap batches out to subscribers. Exact-EPC subscribers are
// indexed so a swap touching k tags only visits their subscriber sets;
// wide (firehose / prefix) subscribers see every batch.
type Hub struct {
	mu     sync.Mutex
	byEPC  map[string]map[*Subscriber]struct{}
	wide   map[*Subscriber]struct{}
	closed bool

	subscribers atomic.Int64                   // current live subscribers
	delivered   atomic.Int64                   // events enqueued
	drops       [DropShutdown + 1]atomic.Int64 // by DropReason
}

// NewHub builds an empty hub.
func NewHub() *Hub {
	return &Hub{
		byEPC: make(map[string]map[*Subscriber]struct{}),
		wide:  make(map[*Subscriber]struct{}),
	}
}

// Subscribers returns the number of live subscribers.
func (h *Hub) Subscribers() int64 { return h.subscribers.Load() }

// Delivered returns the number of events enqueued to subscribers.
func (h *Hub) Delivered() int64 { return h.delivered.Load() }

// Drops returns the eviction count for a reason.
func (h *Hub) Drops(r DropReason) int64 {
	if r < 0 || int(r) >= len(h.drops) {
		return 0
	}
	return h.drops[r].Load()
}

// Subscribe registers a consumer with a bounded queue. On a closed hub
// the returned subscriber's channel is already closed with
// DropShutdown, so callers need no special case.
func (h *Hub) Subscribe(f Filter, buf int) *Subscriber {
	if buf < 1 {
		buf = 1
	}
	s := &Subscriber{c: make(chan Event, buf), filter: f}
	s.C = s.c
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		s.drop.Store(int32(DropShutdown))
		close(s.c)
		return s
	}
	if f.EPC != "" {
		set := h.byEPC[f.EPC]
		if set == nil {
			set = make(map[*Subscriber]struct{})
			h.byEPC[f.EPC] = set
		}
		set[s] = struct{}{}
	} else {
		h.wide[s] = struct{}{}
	}
	h.subscribers.Add(1)
	return s
}

// Unsubscribe removes a live subscriber and closes its channel. Safe to
// call for already-evicted subscribers (no-op).
func (h *Hub) Unsubscribe(s *Subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.removeLocked(s) {
		close(s.c)
	}
}

// removeLocked detaches s from the index. Reports whether it was still
// registered (meaning the caller owns closing the channel).
func (h *Hub) removeLocked(s *Subscriber) bool {
	if s.filter.EPC != "" {
		set := h.byEPC[s.filter.EPC]
		if _, ok := set[s]; !ok {
			return false
		}
		delete(set, s)
		if len(set) == 0 {
			delete(h.byEPC, s.filter.EPC)
		}
	} else {
		if _, ok := h.wide[s]; !ok {
			return false
		}
		delete(h.wide, s)
	}
	h.subscribers.Add(-1)
	return true
}

// Publish fans one swap batch out, batch[i] at epoch first+i. Delivery
// is non-blocking: a full subscriber queue is evicted on the spot
// (channel closed, DropSlowConsumer) rather than stalling the swapper.
func (h *Hub) Publish(first uint64, batch []ingest.TagResult) {
	if len(batch) == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	var evicted []*Subscriber
	for i, r := range batch {
		ev := Event{Epoch: first + uint64(i), Result: r}
		for s := range h.byEPC[r.EPC] {
			if !h.offerLocked(s, ev) {
				evicted = append(evicted, s)
			}
		}
		for s := range h.wide {
			if !s.filter.matches(r.EPC) {
				continue
			}
			if !h.offerLocked(s, ev) {
				evicted = append(evicted, s)
			}
		}
	}
	for _, s := range evicted {
		if h.removeLocked(s) {
			s.drop.Store(int32(DropSlowConsumer))
			h.drops[DropSlowConsumer].Add(1)
			close(s.c)
		}
	}
}

func (h *Hub) offerLocked(s *Subscriber, ev Event) bool {
	select {
	case s.c <- ev:
		h.delivered.Add(1)
		return true
	default:
		return false
	}
}

// Close evicts every subscriber with DropShutdown. Subsequent
// Subscribe calls return an already-closed subscriber; Publish becomes
// a no-op. Idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	closeAll := func(set map[*Subscriber]struct{}) {
		for s := range set {
			s.drop.Store(int32(DropShutdown))
			h.drops[DropShutdown].Add(1)
			close(s.c)
		}
	}
	for _, set := range h.byEPC {
		closeAll(set)
	}
	closeAll(h.wide)
	h.byEPC = make(map[string]map[*Subscriber]struct{})
	h.wide = make(map[*Subscriber]struct{})
	h.subscribers.Store(0)
}
