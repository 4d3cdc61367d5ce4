package gsp

import (
	"runtime"
	"sync"
	"sync/atomic"

	"poiagg/internal/geo"
	"poiagg/internal/poi"
)

// BatchQuery is one (location, radius) item of a batched request.
type BatchQuery struct {
	L geo.Point
	R float64
}

// FreqBatch answers many Freq queries at once, fanning the items out
// across a worker pool. Result i is exactly Freq(reqs[i].L, reqs[i].R)
// — order is preserved and each vector is a fresh copy owned by the
// caller. The batch endpoints and the batched attack probes funnel
// through here, so one wire round trip turns into cores-wide index work.
//
// Identical (L, R) items are deduplicated before the fan-out: each
// unique key is resolved once and duplicate indices receive their own
// clone of that result, so a batch of N copies of one probe costs one
// compute, not N (and never has the pool parking N−1 workers on the
// same key's in-flight call).
func (s *Service) FreqBatch(reqs []BatchQuery) []poi.FreqVector {
	out := make([]poi.FreqVector, len(reqs))
	firstOf := make(map[freqKey]int, len(reqs))
	uniq := make([]int, 0, len(reqs))
	dupOf := make([]int, len(reqs)) // index of first occurrence, or -1
	for i, q := range reqs {
		k := freqKey{x: q.L.X, y: q.L.Y, r: q.R}
		if j, ok := firstOf[k]; ok {
			dupOf[i] = j
			continue
		}
		firstOf[k] = i
		dupOf[i] = -1
		uniq = append(uniq, i)
	}
	fanOut(len(uniq), func(u int) {
		i := uniq[u]
		out[i] = s.Freq(reqs[i].L, reqs[i].R)
	})
	for i, j := range dupOf {
		if j >= 0 {
			out[i] = out[j].Clone()
		}
	}
	return out
}

// QueryBatch answers many Query requests at once with the same ordering
// and ownership guarantees as FreqBatch.
func (s *Service) QueryBatch(reqs []BatchQuery) [][]poi.POI {
	out := make([][]poi.POI, len(reqs))
	fanOut(len(reqs), func(i int) {
		out[i] = s.Query(reqs[i].L, reqs[i].R)
	})
	return out
}

// fanOut runs fn(0..n-1) across up to GOMAXPROCS workers pulling indices
// from a shared atomic counter. Work per item is uneven (radius and POI
// density vary), so work stealing beats static striping.
func fanOut(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
