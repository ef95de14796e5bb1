package service

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"repro/internal/rng"
)

// Ring is a consistent-hash ring mapping dictionary ids to replicas.
// Each replica contributes vnodes virtual points (fnv64a of
// "replica#k"), and a key is owned by the first point clockwise from
// the key's own hash. Two properties matter to the router:
//
//   - deterministic placement: the ring is a pure function of the
//     replica list and vnode count, so every router instance (and
//     every restart) computes identical owners — no coordination
//     state, and byte-determinism of routed responses follows from
//     the replicas' own determinism;
//   - bounded movement: adding or removing one replica only remaps
//     the keys whose owning points belonged to that replica —
//     roughly 1/n of the key space — so a topology change invalidates
//     one replica's worth of warm cache, not all of it. Snapshot
//     transfer (snapshot.go) warms exactly those moved keys.
type Ring struct {
	replicas []string
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	replica int // index into replicas
}

// defaultVNodes balances placement smoothness against ring size; 64
// points per replica keeps the max/min load ratio near 1 for the
// replica counts a single router fronts (2-16).
const defaultVNodes = 64

// NewRing builds a ring over the replica names (base URLs, for the
// router). Duplicate names are rejected; order does not matter — the
// ring is canonicalized by sorting, so any permutation of the same
// replica set yields an identical ring.
func NewRing(replicas []string, vnodes int) (*Ring, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("service: ring needs at least one replica")
	}
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	sorted := append([]string(nil), replicas...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("service: duplicate replica %q", sorted[i])
		}
	}
	r := &Ring{
		replicas: sorted,
		points:   make([]ringPoint, 0, len(sorted)*vnodes),
	}
	for ri, name := range sorted {
		for k := 0; k < vnodes; k++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(name + "#" + strconv.Itoa(k)),
				replica: ri,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Ties break on replica order so the sort (and therefore
		// ownership) is total and deterministic even on hash collisions.
		return a.replica < b.replica
	})
	return r, nil
}

// hash64 hashes a ring point or key to its position. FNV-1a alone is
// unusable here: over short, mostly-shared strings ("http://x#1",
// "http://x#2", ...) its outputs form tight clusters — one replica's
// vnodes all land in a few narrow bands and placement collapses to
// whatever replica's band comes next. The splitMix64 derivation the
// repo already uses for stream splitting is a full-avalanche
// finalizer, which restores a uniform scatter while keeping the
// function a pure deterministic map of the string.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return rng.Derive(h.Sum64(), 0)
}

// Replicas returns the canonical (sorted) replica list.
func (r *Ring) Replicas() []string {
	return append([]string(nil), r.replicas...)
}

// Owner returns the replica owning key.
func (r *Ring) Owner(key string) string {
	return r.Owners(key, 1)[0]
}

// Owners returns up to n distinct replicas for key, in ring order:
// the owner first, then the successors a hedged or failed-over
// request should try next. n is clamped to the replica count.
func (r *Ring) Owners(key string, n int) []string {
	if n > len(r.replicas) {
		n = len(r.replicas)
	}
	if n < 1 {
		n = 1
	}
	kh := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.replica] {
			continue
		}
		seen[p.replica] = true
		out = append(out, r.replicas[p.replica])
	}
	return out
}
