// Package cluster turns the single-process simulation farm into a
// sharded fleet: a router tier that places jobs on worker nodes by
// consistent-hashing their StructuralHash×variant, a node registry with
// heartbeat-driven liveness, checkpoint migration off dead nodes, and a
// fetch-by-hash compile-artifact store so a cold node warms from a peer
// instead of recompiling.
//
// The placement rule is the distributed analogue of the paper's two
// farm-level dedup mechanisms: the compile cache (one Program per
// structural hash) and the lane coalescer (one BatchEngine per group of
// same-Program jobs) both only pay off when same-design jobs meet on the
// same machine. Routing by hash makes them meet; bounded-load spill keeps
// a hot design from melting its home node.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes. Each member owns
// DefaultVirtualNodes points on a 64-bit circle; a key belongs to the member
// owning the first point at or after the key's hash. Adding or removing
// one member moves only the keys adjacent to its points — about 1/N of
// the keyspace — so a node joining or dying does not reshuffle the whole
// fleet's compile-cache affinity.
//
// Ring is not safe for concurrent use; the Router guards it with its own
// mutex.
type Ring struct {
	members map[string]struct{}
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	h  uint64
	id string
}

// DefaultVirtualNodes is each member's point count on the ring. It
// balances placement smoothness (stddev of shard sizes ~ 1/sqrt(points))
// against ring-rebuild cost.
const DefaultVirtualNodes = 64

// NewRing returns an empty ring.
func NewRing() *Ring {
	return &Ring{members: map[string]struct{}{}}
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Add inserts a member (no-op if present).
func (r *Ring) Add(id string) {
	if _, ok := r.members[id]; ok {
		return
	}
	r.members[id] = struct{}{}
	for i := 0; i < DefaultVirtualNodes; i++ {
		r.points = append(r.points, ringPoint{h: hash64(fmt.Sprintf("%s#%d", id, i)), id: id})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].h < r.points[b].h })
}

// Remove deletes a member (no-op if absent).
func (r *Ring) Remove(id string) {
	if _, ok := r.members[id]; !ok {
		return
	}
	delete(r.members, id)
	keep := r.points[:0]
	for _, p := range r.points {
		if p.id != id {
			keep = append(keep, p)
		}
	}
	r.points = keep
}

// Members returns the member IDs in sorted order.
func (r *Ring) Members() []string {
	ids := make([]string, 0, len(r.members))
	for id := range r.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].id
}

// Successors returns up to n distinct members in ring order starting at
// key's owner: the owner first, then the members the key would fall to
// if earlier ones are unavailable or overloaded. This order is what the
// router walks for bounded-load spill and dead-node re-placement, so a
// key's fallback chain is as stable as its primary placement.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := map[string]struct{}{}
	for i, start := 0, r.search(key); len(out) < n && i < len(r.points); i++ {
		id := r.points[(start+i)%len(r.points)].id
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	return out
}

// search returns the index of the first point at or after key's hash
// (wrapping past the top of the circle).
func (r *Ring) search(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
