// Package gsp implements the geo-information service provider of the
// paper's LBS architecture. A City bundles a POI set, its type registry,
// and a spatial index; the Service exposes the single query interface the
// paper assumes — retrieving the POIs (or their type frequency vector)
// within a range of a location:
//
//	P_{l,r} ← Query(l, r)
//	F_{l,r} ← Freq(l, r)
//
// Both the honest users and the adversary consult the same interface; the
// adversary's prior knowledge P is exactly this public service.
package gsp

import (
	"fmt"

	"poiagg/internal/geo"
	"poiagg/internal/index"
	"poiagg/internal/poi"
)

// City is an immutable snapshot of a city's geo-information.
type City struct {
	Name   string
	Bounds geo.Rect
	Types  *poi.TypeTable

	pois     []poi.POI
	byType   [][]poi.POI // POIs grouped by TypeID
	cityFreq poi.FreqVector
	rank     []int // infrequency rank per type (most infrequent = 1)
	idx      index.Index
}

// NewCity builds a city from a POI set. The cell size of the spatial index
// defaults to 500 m, a good fit for the paper's 0.5–4 km query ranges.
func NewCity(name string, bounds geo.Rect, types *poi.TypeTable, pois []poi.POI) (*City, error) {
	if types == nil {
		return nil, fmt.Errorf("gsp: city %q: nil type table", name)
	}
	m := types.Len()
	cityFreq := poi.NewFreqVector(m)
	byType := make([][]poi.POI, m)
	cp := make([]poi.POI, len(pois))
	copy(cp, pois)
	for _, p := range cp {
		if p.Type < 0 || int(p.Type) >= m {
			return nil, fmt.Errorf("gsp: city %q: POI %d has unregistered type %d", name, p.ID, p.Type)
		}
		cityFreq[p.Type]++
		byType[p.Type] = append(byType[p.Type], p)
	}
	const cellSize = 500
	return &City{
		Name:     name,
		Bounds:   bounds,
		Types:    types,
		pois:     cp,
		byType:   byType,
		cityFreq: cityFreq,
		rank:     poi.RankByFrequency(cityFreq),
		idx:      index.NewGrid(cp, bounds, cellSize),
	}, nil
}

// M returns the number of POI types in the city.
func (c *City) M() int { return c.Types.Len() }

// WrapIndex replaces the city's spatial index with wrap(current). Load
// generators and tests use it to instrument or pad index lookups — e.g.
// padding CountTypes with fixed CPU work so a small synthetic city
// reproduces the contention behavior of a dense production one. Not safe
// to call concurrently with queries.
func (c *City) WrapIndex(wrap func(index.Index) index.Index) { c.idx = wrap(c.idx) }

// NumPOIs returns the number of POIs.
func (c *City) NumPOIs() int { return len(c.pois) }

// POIs returns a copy of the city's POI set.
func (c *City) POIs() []poi.POI {
	out := make([]poi.POI, len(c.pois))
	copy(out, c.pois)
	return out
}

// POIsOfType returns the POIs with the given type. The returned slice is
// shared and must not be modified.
func (c *City) POIsOfType(t poi.TypeID) []poi.POI {
	if t < 0 || int(t) >= len(c.byType) {
		return nil
	}
	return c.byType[t]
}

// CityFreq returns the city-wide type frequency vector F (shared; do not
// modify).
func (c *City) CityFreq() poi.FreqVector { return c.cityFreq }

// InfrequencyRank returns R(i) for every type: the most infrequent type
// city-wide has rank 1. The returned slice is shared and must not be
// modified.
func (c *City) InfrequencyRank() []int { return c.rank }

// Service answers Query and Freq requests for one city, with a bounded
// memoization cache for Freq results. The attacks issue many repeated
// Freq(p, 2r) probes for the same anchor POIs; caching those is what makes
// city-scale attack sweeps tractable (see BenchmarkFreqCache).
//
// The cache is sharded (power-of-two lock shards selected by hashed key,
// per-shard second-chance eviction) so concurrent sweeps scale with the
// core count instead of serializing on one mutex, and a full cache sheds
// cold entries one at a time instead of wiping the hot working set.
//
// Misses are coalesced inside the cache shards (singleflight.go): when
// concurrent requests miss the same key, one computes while the rest
// wait and share the result — under duplicate-heavy traffic a hot key
// costs one CountTypes per miss instead of one per requester.
//
// Service is safe for concurrent use.
type Service struct {
	city  *City
	cache *shardedCache // nil when caching is disabled
}

type freqKey struct {
	x, y, r float64
}

// NewService returns a service over city. maxCache bounds the number of
// memoized Freq results; 0 disables caching.
func NewService(city *City, maxCache int) *Service {
	s := &Service{city: city}
	if maxCache > 0 {
		s.cache = newShardedCache(maxCache)
	}
	return s
}

// City returns the underlying city.
func (s *Service) City() *City { return s.city }

// Query returns the POIs within radius r of l (the paper's Query(l, r)).
func (s *Service) Query(l geo.Point, r float64) []poi.POI {
	return s.city.idx.Within(nil, l, r)
}

// Freq returns the POI type frequency vector of the POIs within radius r
// of l (the paper's Freq(l, r)). The returned vector is a fresh copy owned
// by the caller. Hot loops that probe Freq repeatedly and discard the
// vector should use FreqInto with a reused buffer instead.
func (s *Service) Freq(l geo.Point, r float64) poi.FreqVector {
	f := poi.NewFreqVector(s.city.M())
	s.FreqInto(f, l, r)
	return f
}

// FreqInto fills out — a caller-owned buffer whose length must equal
// City().M() — with the frequency vector Freq(l, r) would return,
// without allocating: a cache hit unpacks the cached counts into the
// buffer, a miss counts directly into it. It is the zero-allocation
// core of the attack kernels, whose pruning loops issue millions of
// Freq probes and discard each vector immediately (Freq itself is a
// thin wrapper).
func (s *Service) FreqInto(out poi.FreqVector, l geo.Point, r float64) {
	if len(out) != s.city.M() {
		panic(fmt.Sprintf("gsp: FreqInto: buffer dimension %d, city has %d types", len(out), s.city.M()))
	}
	if s.cache == nil {
		clear(out)
		s.city.idx.CountTypes(out, l, r)
		return
	}
	key := freqKey{x: l.X, y: l.Y, r: r}
	sh := s.cache.shardFor(key)
	b, c, lead := sh.lookup(key)
	switch {
	case c == nil:
		unpackFreq(out, b)
	case lead:
		s.lead(sh, c, out, key, l, r)
	default:
		s.join(c, out, key, l, r)
	}
}

// CacheStats returns the number of cache hits and misses so far.
func (s *Service) CacheStats() (hits, misses uint64) {
	m := s.CacheMetrics()
	return m.Hits, m.Misses
}

// CacheMetrics returns the cache's full bookkeeping, including
// per-entry eviction counts and occupancy. The zero value is returned
// when caching is disabled.
func (s *Service) CacheMetrics() CacheMetrics {
	if s.cache == nil {
		return CacheMetrics{}
	}
	m, _ := s.cache.metrics()
	return m
}
