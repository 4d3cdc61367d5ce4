package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"poiagg/internal/citygen"
)

// citySeed is the generation seed of every daemon's city. The city is
// deployment data, not workload input, so it stays fixed while -seed
// varies.
const citySeed = 1

// cityOracle answers Freq(l, r) by brute force over the city the daemons
// serve, rebuilt here with citygen at the daemons' preset and seed.
type cityOracle struct {
	name                   string
	m                      int
	minX, minY, maxX, maxY float64
	xs, ys                 []float64
	types                  []int
}

func newCityOracle(name string) (*cityOracle, error) {
	var p citygen.Params
	switch name {
	case "beijing":
		p = citygen.Beijing(citySeed)
	case "nyc":
		p = citygen.NewYork(citySeed)
	default:
		return nil, fmt.Errorf("unknown city %q", name)
	}
	c, err := citygen.Generate(p)
	if err != nil {
		return nil, err
	}
	o := &cityOracle{name: c.Name, m: c.M(),
		minX: c.Bounds.MinX, minY: c.Bounds.MinY, maxX: c.Bounds.MaxX, maxY: c.Bounds.MaxY}
	for _, q := range c.POIs() {
		o.xs = append(o.xs, q.Pos.X)
		o.ys = append(o.ys, q.Pos.Y)
		o.types = append(o.types, int(q.Type))
	}
	return o, nil
}

// freq counts the POIs of each type in the closed disk of radius r
// around (x, y).
func (o *cityOracle) freq(it item) []int {
	out := make([]int, o.m)
	r2 := it.R * it.R
	for i, x := range o.xs {
		dx, dy := x-it.X, o.ys[i]-it.Y
		if dx*dx+dy*dy <= r2 {
			out[o.types[i]]++
		}
	}
	return out
}

// checkStats cross-checks a daemon's GET /v1/stats against the oracle's
// city, so a daemon serving a different city fails at set-up rather than
// as a stream of mismatches.
func (o *cityOracle) checkStats(body []byte) error {
	var st struct {
		Name     string `json:"name"`
		NumPOIs  int    `json:"numPois"`
		NumTypes int    `json:"numTypes"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("decode /v1/stats: %w", err)
	}
	if st.Name != o.name || st.NumPOIs != len(o.xs) || st.NumTypes != o.m {
		return fmt.Errorf("daemon serves %s (%d POIs, %d types), oracle has %s (%d POIs, %d types)",
			st.Name, st.NumPOIs, st.NumTypes, o.name, len(o.xs), o.m)
	}
	return nil
}

// item is one (x, y, r) probe.
type item struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	R float64 `json:"r"`
}

// answer is a sampled response kept for the oracle.
type answer struct {
	items []item
	batch bool
	body  []byte
}

// checkEvery is the sampling period of answers checked against the
// oracle: one operation in checkEvery keeps its body.
const checkEvery = 16

// checker collects sampled answers while the generator measures and
// compares them with the oracle afterwards, so that decoding and brute
// force stay out of the measured phases. It also counts answers that
// failed an invariant checked on the spot.
type checker struct {
	oracle *cityOracle

	mu      sync.Mutex
	pending []answer
	checked int
	wrong   int
	first   string
}

// keep stores a sampled answer for verify.
func (c *checker) keep(a answer) {
	c.mu.Lock()
	c.pending = append(c.pending, a)
	c.mu.Unlock()
}

// fail records an answer that broke an invariant.
func (c *checker) fail(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	c.mu.Lock()
	c.checked++
	c.wrong++
	if c.first == "" {
		c.first = err.Error()
	}
	c.mu.Unlock()
	return err
}

// pass records an answer that satisfied its invariant.
func (c *checker) pass() {
	c.mu.Lock()
	c.checked++
	c.mu.Unlock()
}

// verify compares every kept answer with the oracle on every core and
// returns how many were wrong.
func (c *checker) verify() (wrong int) {
	c.mu.Lock()
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, len(pending))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			memo := make(map[item][]int)
			want := func(it item) []int {
				f, ok := memo[it]
				if !ok {
					f = c.oracle.freq(it)
					memo[it] = f
				}
				return f
			}
			for i := w; i < len(pending); i += workers {
				errs[i] = checkAnswer(pending[i], want)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			c.fail("%v", err)
			wrong++
		} else {
			c.pass()
		}
	}
	return wrong
}

// checkAnswer decodes one /v1/freq or /v1/freq/batch body and compares
// each vector with want.
func checkAnswer(a answer, want func(item) []int) error {
	if !a.batch {
		var r struct {
			Freq []int `json:"freq"`
		}
		if err := json.Unmarshal(a.body, &r); err != nil {
			return fmt.Errorf("decode freq answer: %w", err)
		}
		if !slices.Equal(r.Freq, want(a.items[0])) {
			return fmt.Errorf("wrong freq for %+v", a.items[0])
		}
		return nil
	}
	var r struct {
		Results []struct {
			Freq  []int  `json:"freq"`
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(a.body, &r); err != nil {
		return fmt.Errorf("decode batch answer: %w", err)
	}
	if len(r.Results) != len(a.items) {
		return fmt.Errorf("batch of %d items got %d results", len(a.items), len(r.Results))
	}
	for i, res := range r.Results {
		if res.Error != "" {
			return fmt.Errorf("batch item %+v: %s", a.items[i], res.Error)
		}
		if !slices.Equal(res.Freq, want(a.items[i])) {
			return fmt.Errorf("wrong batch freq for %+v", a.items[i])
		}
	}
	return nil
}
