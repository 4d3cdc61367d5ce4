package wire

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"poiagg/internal/attack"
	"poiagg/internal/geo"
	"poiagg/internal/gsp"
	"poiagg/internal/poi"
)

// Batch API paths served by GSPServer. The attacks' anchor-probe loops
// issue hundreds of Freq(p, 2r) probes per release; batching them
// amortizes a round trip over many probes and lets the server fan the
// batch out across its cores (BenchmarkWireBatchVsSequential).
const (
	PathFreqBatch  = "/v1/freq/batch"
	PathQueryBatch = "/v1/query/batch"
)

// DefaultMaxBatch bounds the items accepted in one batch request unless
// WithMaxBatch overrides it.
const DefaultMaxBatch = 256

// BatchItem is one (location, radius) probe of a batch request.
type BatchItem struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	R float64 `json:"r"`
}

// BatchRequest is the POST body of both batch endpoints.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// FreqBatchResult is the outcome of one item: either a frequency vector
// or a per-item error. Item failures never fail the batch — the response
// is 200 with Error set at the failed index.
type FreqBatchResult struct {
	Freq  poi.FreqVector `json:"freq,omitempty"`
	Error string         `json:"error,omitempty"`
}

// FreqBatchResponse carries one result per request item, in order.
type FreqBatchResponse struct {
	Results []FreqBatchResult `json:"results"`
}

// QueryBatchResult is the outcome of one query item.
type QueryBatchResult struct {
	POIs  []poi.POI `json:"pois,omitempty"`
	Error string    `json:"error,omitempty"`
}

// QueryBatchResponse carries one result per request item, in order.
type QueryBatchResponse struct {
	Results []QueryBatchResult `json:"results"`
}

// registerBatch adds the batch endpoints; called from NewGSPServer.
func (s *GSPServer) registerBatch() {
	s.mux.HandleFunc("POST "+PathFreqBatch, s.handleFreqBatch)
	s.mux.HandleFunc("POST "+PathQueryBatch, s.handleQueryBatch)
}

// decodeBatch reads and validates the request envelope.
func (s *GSPServer) decodeBatch(w http.ResponseWriter, r *http.Request) ([]BatchItem, bool) {
	return decodeBatchRequest(w, r, s.maxBody, s.maxBatch)
}

// decodeBatchRequest is the shared batch-envelope validator: the GSP
// server and the cluster gateway both run it, so envelope-level
// failures (malformed JSON, empty batch, oversized batch, oversized
// body) reject with byte-identical 400/413 responses from either.
// Item-level validation happens per item later.
func decodeBatchRequest(w http.ResponseWriter, r *http.Request, maxBody int64, maxBatch int) ([]BatchItem, bool) {
	var req BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		if isMaxBytes(err) {
			writeBodyTooLarge(w, maxBody)
			return nil, false
		}
		writeError(w, http.StatusBadRequest, "malformed batch request")
		return nil, false
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return nil, false
	}
	if len(req.Items) > maxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d items exceeds limit %d", len(req.Items), maxBatch))
		return nil, false
	}
	return req.Items, true
}

// validateItem applies the same location rules as the GET endpoints.
func (s *GSPServer) validateItem(it BatchItem) error {
	return validateBatchItem(it, s.maxRadius)
}

// validateBatchItem is the shared per-item validator (server and
// gateway), keeping per-item error strings identical on both.
func validateBatchItem(it BatchItem, maxRadius float64) error {
	if !isFinite(it.X) || !isFinite(it.Y) || !isFinite(it.R) {
		return fmt.Errorf("x, y, r must be finite")
	}
	if it.R <= 0 || it.R > maxRadius {
		return fmt.Errorf("r out of range")
	}
	return nil
}

// splitBatch validates every item, returning the valid ones as service
// queries plus their original indices; invalid items get their error
// recorded through report.
func (s *GSPServer) splitBatch(items []BatchItem, report func(i int, err error)) ([]gsp.BatchQuery, []int) {
	reqs := make([]gsp.BatchQuery, 0, len(items))
	idx := make([]int, 0, len(items))
	for i, it := range items {
		if err := s.validateItem(it); err != nil {
			report(i, err)
			continue
		}
		reqs = append(reqs, gsp.BatchQuery{L: geo.Point{X: it.X, Y: it.Y}, R: it.R})
		idx = append(idx, i)
	}
	return reqs, idx
}

func (s *GSPServer) handleFreqBatch(w http.ResponseWriter, r *http.Request) {
	items, ok := s.decodeBatch(w, r)
	if !ok {
		return
	}
	release, ok := s.admitBatch(w, r, len(items))
	if !ok {
		return
	}
	defer release()
	results := make([]FreqBatchResult, len(items))
	reqs, idx := s.splitBatch(items, func(i int, err error) {
		results[i].Error = err.Error()
	})
	for j, f := range s.svc.FreqBatch(reqs) {
		results[idx[j]].Freq = f
	}
	writeRaw(w, http.StatusOK, freqBatchJSON(results))
}

// freqBatchJSON returns writeJSON's body for FreqBatchResponse{results}.
// Items appendFreqJSON does not cover, errors and the empty vector that
// omitempty drops, go through json.Marshal.
func freqBatchJSON(results []FreqBatchResult) []byte {
	b := []byte(`{"results":[`)
	for i, res := range results {
		if i > 0 {
			b = append(b, ',')
		}
		if res.Error != "" || len(res.Freq) == 0 {
			// A struct of a string and an int slice always marshals.
			seg, _ := json.Marshal(res)
			b = append(b, seg...)
			continue
		}
		b = append(b, `{"freq":`...)
		b = append(appendFreqJSON(b, res.Freq), '}')
	}
	return append(b, "]}\n"...)
}

func (s *GSPServer) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	items, ok := s.decodeBatch(w, r)
	if !ok {
		return
	}
	release, ok := s.admitBatch(w, r, len(items))
	if !ok {
		return
	}
	defer release()
	results := make([]QueryBatchResult, len(items))
	reqs, idx := s.splitBatch(items, func(i int, err error) {
		results[i].Error = err.Error()
	})
	for j, ps := range s.svc.QueryBatch(reqs) {
		results[idx[j]].POIs = ps
	}
	writeJSON(w, http.StatusOK, QueryBatchResponse{Results: results})
}

// FreqBatch posts a batch of Freq probes in one round trip. Results are
// in item order; a result may carry a per-item Error instead of a
// vector. Envelope rejections (empty, oversized, malformed) surface as
// an error wrapping ErrBadRequest.
func (c *GSPClient) FreqBatch(ctx context.Context, items []BatchItem) ([]FreqBatchResult, error) {
	return postBatch[FreqBatchResult](ctx, c, PathFreqBatch, items)
}

// QueryBatch posts a batch of Query probes in one round trip.
func (c *GSPClient) QueryBatch(ctx context.Context, items []BatchItem) ([]QueryBatchResult, error) {
	return postBatch[QueryBatchResult](ctx, c, PathQueryBatch, items)
}

// postBatch posts items to the batch endpoint at path and returns the
// reply's results, which must be one per item. The cluster gateway
// relays with R = json.RawMessage: each result is checked to be JSON
// but not decoded.
func postBatch[R any](ctx context.Context, c *GSPClient, path string, items []BatchItem) ([]R, error) {
	body, err := json.Marshal(BatchRequest{Items: items})
	if err != nil {
		return nil, fmt.Errorf("wire: marshal batch: %w", err)
	}
	var out struct {
		Results []R `json:"results"`
	}
	if err := c.core.do(ctx, http.MethodPost, path, nil, body, &out); err != nil {
		return nil, err
	}
	if len(out.Results) != len(items) {
		return nil, fmt.Errorf("wire: %s: %d results for %d items", path, len(out.Results), len(items))
	}
	return out.Results, nil
}

// RemoteRegionStats meters a RemoteRegion run.
type RemoteRegionStats struct {
	// Probes is the number of candidate anchors probed.
	Probes int
	// RoundTrips is the number of batch HTTP requests those probes cost
	// (⌈Probes/batchSize⌉ — the sequential client would pay one round
	// trip per probe).
	RoundTrips int
}

// RemoteRegion mounts the region re-identification attack over the
// wire: the same candidate-pruning loop as attack.Region, with the
// Freq(p, 2r) anchor probes batched through the GSP's batch endpoint
// instead of answered by a local service. city is the adversary's prior
// knowledge (typically FetchCity from the same server); f is the
// released vector and r the query range. batchSize ≤ 0 uses
// DefaultMaxBatch. The result is identical to running attack.Region
// against a local service over the same data.
func RemoteRegion(ctx context.Context, c *GSPClient, city *gsp.City, f poi.FreqVector, r float64, batchSize int) (attack.RegionResult, RemoteRegionStats, error) {
	if batchSize <= 0 {
		batchSize = DefaultMaxBatch
	}
	var stats RemoteRegionStats
	tl, ok := poi.MostInfrequentPresent(f, city.CityFreq())
	if !ok {
		return attack.RegionResult{AnchorType: -1}, stats, nil
	}
	candidates := city.POIsOfType(tl)
	var survivors []poi.POI
	for start := 0; start < len(candidates); start += batchSize {
		chunk := candidates[start:min(start+batchSize, len(candidates))]
		items := make([]BatchItem, len(chunk))
		for i, p := range chunk {
			items[i] = BatchItem{X: p.Pos.X, Y: p.Pos.Y, R: 2 * r}
		}
		results, err := c.FreqBatch(ctx, items)
		if err != nil {
			return attack.RegionResult{}, stats, fmt.Errorf("wire: RemoteRegion: %w", err)
		}
		stats.RoundTrips++
		stats.Probes += len(chunk)
		for i, res := range results {
			if res.Error != "" {
				return attack.RegionResult{}, stats, fmt.Errorf("wire: RemoteRegion: probe %d: %s", start+i, res.Error)
			}
			if res.Freq.Dominates(f) {
				survivors = append(survivors, chunk[i])
			}
		}
	}
	res := attack.RegionResult{AnchorType: tl, Candidates: survivors}
	if len(survivors) == 1 {
		res.Success = true
		res.Anchor = survivors[0]
	}
	return res, stats, nil
}
