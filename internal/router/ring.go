// Package router is the sharding tier in front of rfprismd: a thin
// HTTP router that consistent-hashes EPCs onto N daemon shards (each
// with its own journal, sessionizer, breaker and recovery domain),
// fans POST /v1/ingest out per EPC with per-shard backpressure, scatter-
// gathers the read endpoints with partial-result degradation, and
// aggregates /metrics and /readyz across the fleet. One EPC always
// lands on one shard, so every per-EPC invariant the single daemon
// guarantees (session contiguity, at-most-once (EPC, FirstSeq) window
// identity, journal recovery) holds per shard without coordination.
package router

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVnodes is the virtual-node count per shard. 128 vnodes keep
// the max/mean key-load ratio under ~1.25 for 2–16 shards (see the
// ring balance tests) while the ring stays small enough to rebuild on
// every membership change.
const DefaultVnodes = 128

// Ring is a consistent-hash ring mapping EPCs to shard IDs. Each
// shard owns Vnodes points on a 64-bit hash circle; a key belongs to
// the first point clockwise from its own hash. Adding or removing a
// shard therefore remaps only the keys adjacent to that shard's
// points — about 1/N of the keyspace — while every other key keeps
// its owner, which is what makes shard membership changes cheap: only
// the moved keys need a session handoff.
//
// Ring is not goroutine-safe; the Router guards it.
type Ring struct {
	vnodes int
	shards map[string]bool
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard string
}

// NewRing builds an empty ring with the given virtual-node count per
// shard (≤ 0 means DefaultVnodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes, shards: make(map[string]bool)}
}

// hashKey positions a key (an EPC, or a shard vnode name) on the
// circle: FNV-1a through a splitmix64 finalizer. FNV alone is not
// enough — its trailing-byte diffusion is weak, so sequential EPCs
// ("tag-000041", "tag-000042", …) land within ~1e16 of each other and
// pile onto single vnode arcs. The finalizer's avalanche spreads them
// uniformly. Both stages are deterministic across processes and Go
// versions, which the conformance harness relies on: router and tests
// must agree on ownership without talking to each other.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer (Steele et al.): a bijective
// avalanche mix, every input bit flips ~half the output bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a shard's vnodes. Adding an existing shard is a no-op.
func (r *Ring) Add(shard string) {
	if r.shards[shard] {
		return
	}
	r.shards[shard] = true
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{
			hash:  hashKey(shard + "#" + strconv.Itoa(v)),
			shard: shard,
		})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
}

// Remove deletes a shard's vnodes. Removing an unknown shard is a
// no-op.
func (r *Ring) Remove(shard string) {
	if !r.shards[shard] {
		return
	}
	delete(r.shards, shard)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != shard {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner returns the shard owning key, or false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's first point
	}
	return r.points[i].shard, true
}

// Shards returns the member shard IDs, sorted.
func (r *Ring) Shards() []string {
	out := make([]string, 0, len(r.shards))
	for s := range r.shards {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.shards) }

// Vnodes returns the per-shard virtual-node count.
func (r *Ring) Vnodes() int { return r.vnodes }

// String summarizes the ring for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d shards, %d vnodes)", len(r.shards), r.vnodes)
}
