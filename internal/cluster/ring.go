// Package cluster provides the consistent-hash ring that partitions the
// GSP keyspace — (city × grid cell) — across a fleet of gspd shards.
//
// The ring hashes each peer onto many virtual points (virtual nodes);
// a key is owned by the peer whose next point clockwise covers it.
// Virtual nodes smooth the per-peer ownership share (the property test
// bounds the max/min cell-ownership ratio), and the clockwise-successor
// rule gives minimal disruption: adding or removing one peer of N moves
// only ~1/N of the keys, and every moved key moves to or from exactly
// that peer — the rest of the fleet keeps its cache-warm cells.
//
// The ring is safe for concurrent use: the gateway's health prober
// removes and re-adds peers while request fan-out resolves owners.
package cluster

import (
	"math"
	"sort"
	"strconv"
	"sync"

	"poiagg/internal/hash64"
)

// DefaultVirtualNodes is the per-peer virtual-node count unless New is
// given another. 128 points per peer keeps the max/min ownership ratio
// under ~1.7 across small fleets (see TestRingBalance) at negligible
// memory cost.
const DefaultVirtualNodes = 128

// point is one virtual node: a position on the ring owned by a peer.
type point struct {
	hash uint64
	peer string
}

// Ring is a consistent-hash ring over peer names (base URLs, for the
// gateway). The zero value is not usable; call New.
type Ring struct {
	vnodes int

	mu     sync.RWMutex
	points []point // sorted by (hash, peer)
	peers  map[string][]uint64
}

// New returns an empty ring placing vnodes virtual points per peer
// (DefaultVirtualNodes when vnodes <= 0).
func New(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, peers: make(map[string][]uint64)}
}

// vnodeHashes returns the ring positions of a peer's virtual nodes.
func (r *Ring) vnodeHashes(peer string) []uint64 {
	hs := make([]uint64, r.vnodes)
	for i := range hs {
		hs[i] = hash64.String(peer + "#" + strconv.Itoa(i))
	}
	return hs
}

// Add inserts a peer; it reports false if the peer was already present.
func (r *Ring) Add(peer string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.peers[peer]; ok {
		return false
	}
	hs := r.vnodeHashes(peer)
	r.peers[peer] = hs
	pts := make([]point, 0, len(r.points)+len(hs))
	pts = append(pts, r.points...)
	for _, h := range hs {
		pts = append(pts, point{hash: h, peer: peer})
	}
	sortPoints(pts)
	r.points = pts
	return true
}

// Remove deletes a peer; it reports false if the peer was not present.
func (r *Ring) Remove(peer string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.peers[peer]; !ok {
		return false
	}
	delete(r.peers, peer)
	pts := make([]point, 0, len(r.points)-r.vnodes)
	for _, p := range r.points {
		if p.peer != peer {
			pts = append(pts, p)
		}
	}
	r.points = pts
	return true
}

// sortPoints orders by hash, breaking the (astronomically unlikely)
// hash tie by peer name so ownership never depends on insertion order.
func sortPoints(pts []point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].peer < pts[j].peer
	})
}

// Owner returns the peer owning key: the first virtual point at or
// clockwise after the key's position, wrapping at the top. ok is false
// when the ring is empty.
func (r *Ring) Owner(key uint64) (peer string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].peer, true
}

// Owners returns up to n distinct peers for key in replica-rank order:
// rank 0 is Owner(key), rank k the k-th distinct peer encountered
// walking clockwise from the key's position. Walking peers (not just
// points) keeps each rank a consistent-hash function of the member set,
// so per-rank disruption under membership change stays ~1/N — the same
// minimal-movement property Owner has, once per rank. n is capped at
// the number of peers on the ring; an empty ring returns nil.
func (r *Ring) Owners(key uint64, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.peers) {
		n = len(r.peers)
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for off := 0; off < len(r.points) && len(out) < n; off++ {
		p := r.points[(i+off)%len(r.points)].peer
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// Contains reports whether peer is currently on the ring.
func (r *Ring) Contains(peer string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.peers[peer]
	return ok
}

// Peers returns the current members, sorted.
func (r *Ring) Peers() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.peers))
	for p := range r.peers {
		out = append(out, p)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len returns the number of peers on the ring.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.peers)
}

// DefaultCellSize quantizes query coordinates into routing cells. It
// matches the GSP spatial index's 500 m grid: queries for nearby
// locations land on the same shard, so each shard's freq cache holds a
// compact, disjoint slice of the city.
const DefaultCellSize = 500.0

// CellOf quantizes a coordinate pair to its routing grid cell.
// cellSize <= 0 uses DefaultCellSize.
func CellOf(x, y, cellSize float64) (cx, cy int) {
	if cellSize <= 0 {
		cellSize = DefaultCellSize
	}
	return int(math.Floor(x / cellSize)), int(math.Floor(y / cellSize))
}

// Key hashes one (city × grid cell) keyspace element to its ring
// position. The city label isolates co-hosted cities on one fleet; a
// single-city deployment may leave it empty.
func Key(city string, cx, cy int) uint64 {
	h := hash64.FNV(hash64.FNVOffset, city)
	h = hash64.FNVUint64(h, uint64(int64(cx)))
	h = hash64.FNVUint64(h, uint64(int64(cy)))
	return hash64.Mix(h)
}
