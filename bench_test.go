// Benchmarks regenerating every table and figure of the paper, one
// testing.B target per experiment (see DESIGN.md's per-experiment index).
// They run at quick scale against a shared environment, so they measure
// the cost of each figure's sweep with substrates (cities, trained
// models, datasets) already built — the steady-state cost of
// regenerating a figure.
//
// Run all:  go test -bench=Fig -benchmem .
package poiagg_test

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"poiagg/internal/citygen"
	"poiagg/internal/experiments"
	"poiagg/internal/gsp"
	"poiagg/internal/wire"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
)

func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv = experiments.NewEnv(experiments.Config{
			Seed:      1,
			Scale:     experiments.ScaleQuick,
			Locations: 60,
		})
	})
	return benchEnv
}

func benchFigure(b *testing.B, id string) {
	env := benchEnvironment(b)
	driver := experiments.Registry()[id]
	if driver == nil {
		b.Fatalf("no driver for %q", id)
	}
	// Warm the environment (city generation, model training) outside the
	// timed region.
	if _, err := driver(env); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := driver(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetTable regenerates the Section II-E dataset statistics.
func BenchmarkDatasetTable(b *testing.B) { benchFigure(b, "datasets") }

// BenchmarkFig2 regenerates Figure 2 (recovery-model accuracy).
func BenchmarkFig2(b *testing.B) { benchFigure(b, "2") }

// BenchmarkFig3 regenerates Figure 3 (sanitization defense).
func BenchmarkFig3(b *testing.B) { benchFigure(b, "3") }

// BenchmarkFig4 regenerates Figure 4 (planar Laplace defense).
func BenchmarkFig4(b *testing.B) { benchFigure(b, "4") }

// BenchmarkFig5 regenerates Figure 5 (spatial k-cloaking defense).
func BenchmarkFig5(b *testing.B) { benchFigure(b, "5") }

// BenchmarkFig6 regenerates Figure 6 (fine-grained attack area CDF).
func BenchmarkFig6(b *testing.B) { benchFigure(b, "6") }

// BenchmarkFig7 regenerates Figure 7 (area vs auxiliary anchors).
func BenchmarkFig7(b *testing.B) { benchFigure(b, "7") }

// BenchmarkFig8 regenerates Figure 8 (trajectory-uniqueness attack).
func BenchmarkFig8(b *testing.B) { benchFigure(b, "8") }

// BenchmarkFig9 regenerates Figure 9 (non-private defense, success).
func BenchmarkFig9(b *testing.B) { benchFigure(b, "9") }

// BenchmarkFig10 regenerates Figure 10 (non-private defense, utility).
func BenchmarkFig10(b *testing.B) { benchFigure(b, "10") }

// BenchmarkFig11 regenerates Figure 11 (DP defense, success).
func BenchmarkFig11(b *testing.B) { benchFigure(b, "11") }

// BenchmarkFig12 regenerates Figure 12 (DP defense, utility).
func BenchmarkFig12(b *testing.B) { benchFigure(b, "12") }

// BenchmarkExtSeq regenerates the multi-release sequence-attack
// extension figure.
func BenchmarkExtSeq(b *testing.B) { benchFigure(b, "ext-seq") }

// BenchmarkExtRobust regenerates the defense-robustness extension figure
// (trains transform-recovery models; the heaviest target).
func BenchmarkExtRobust(b *testing.B) { benchFigure(b, "ext-robust") }

// BenchmarkExtBudget regenerates the budget-enforcement extension figure
// (sequence attack against ledger-throttled release runs).
func BenchmarkExtBudget(b *testing.B) { benchFigure(b, "ext-budget") }

// BenchmarkGSPServerParallel prices the full server chain (metrics,
// operational endpoints, request log) on the /v1/freq workload, driven
// from all procs in parallel as a production GSP would be.
func BenchmarkGSPServerParallel(b *testing.B) {
	p := citygen.Beijing(51)
	p.NumPOIs = 2000
	p.NumTypes = 60
	p.Width, p.Height = 12_000, 12_000
	city, err := citygen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	svc := gsp.NewService(city.City, 1<<14)
	l := city.RandomLocations(1, 52)[0]
	target := fmt.Sprintf("/v1/freq?x=%f&y=%f&r=700", l.X, l.Y)
	handler := wire.NewGSPServer(svc, wire.WithLogger(log.New(io.Discard, "", 0)))
	b.Run("instrumented", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				req := httptest.NewRequest(http.MethodGet, target, nil)
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d", rec.Code)
				}
			}
		})
	})
}
