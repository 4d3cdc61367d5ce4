package experiments

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"poiagg/internal/attack"
	"poiagg/internal/eval"
	"poiagg/internal/stats"
	"poiagg/internal/trajgen"
)

// DatasetTable reproduces the Section II-E dataset statistics: POI and
// type counts of the two cities.
func DatasetTable(env *Env) (*Figure, error) {
	fig := &Figure{
		ID:     "datasets",
		Title:  "Dataset statistics (Section II-E)",
		XLabel: "city(1=BJ,2=NYC)",
		YLabel: "count",
	}
	pois := Series{Name: "POIs"}
	types := Series{Name: "types"}
	rare := Series{Name: "types freq<=10"}
	for i, name := range []string{"beijing", "nyc"} {
		city, err := env.City(name)
		if err != nil {
			return nil, err
		}
		x := float64(i + 1)
		pois.X = append(pois.X, x)
		pois.Y = append(pois.Y, float64(city.NumPOIs()))
		types.X = append(types.X, x)
		types.Y = append(types.Y, float64(city.M()))
		rare.X = append(rare.X, x)
		rare.Y = append(rare.Y, float64(len(sanitizedTypes(city, 10))))
	}
	fig.Series = []Series{pois, types, rare}
	fig.Notes = append(fig.Notes,
		"paper: Beijing 10,249 POIs / 177 types; NYC 30,056 POIs / 272 types",
		"paper sanitizes 90 (BJ) and 138 (NYC) types with frequency <= 10")
	return fig, nil
}

// Fig2 reproduces Figure 2: validation accuracy of the per-type
// prediction models that recover sanitized frequencies, per query range.
func Fig2(env *Env) (*Figure, error) {
	fig := &Figure{
		ID:     "fig2",
		Title:  "Accuracy of sanitization-recovery prediction models",
		XLabel: "r (km)",
		YLabel: "mean validation accuracy",
	}
	for _, cityName := range []string{"beijing", "nyc"} {
		s := Series{Name: cityName}
		for _, r := range Radii {
			rec, err := env.Recoverer(cityName, r)
			if err != nil {
				return nil, err
			}
			// Sum in type order: map order would change the float sum's
			// low bits from run to run.
			acc := rec.ValidationAccuracy()
			var accs []float64
			for _, typ := range slices.Sorted(maps.Keys(acc)) {
				accs = append(accs, acc[typ])
			}
			mean, std := stats.MeanStd(accs)
			s.X = append(s.X, r/1000)
			s.Y = append(s.Y, mean)
			fig.Notes = append(fig.Notes,
				fmt.Sprintf("%s r=%.1fkm: accuracy %.3f (±%.3f) over %d sanitized types",
					cityName, r/1000, mean, std, len(accs)))
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes, "paper: mean accuracy > 0.95 for all ranges in both cities")
	return fig, nil
}

// Fig3 reproduces Figure 3: region re-identification success under
// sanitization — without protection, sanitized, and with learning-based
// recovery.
func Fig3(env *Env) (*Figure, error) {
	fig := &Figure{
		ID:     "fig3",
		Title:  "Performance of the sanitization defense",
		XLabel: "r (km)",
		YLabel: "success rate",
	}
	for _, tc := range []struct{ cityName, dataset string }{
		{"beijing", DatasetBJRandom},
		{"nyc", DatasetNYCRandom},
	} {
		svc, err := env.Service(tc.cityName)
		if err != nil {
			return nil, err
		}
		city, err := env.City(tc.cityName)
		if err != nil {
			return nil, err
		}
		locs, err := env.Dataset(tc.dataset)
		if err != nil {
			return nil, err
		}
		san := sanitizedTypes(city, 10)
		plain := Series{Name: tc.cityName + ":w/o protection"}
		sanitized := Series{Name: tc.cityName + ":sanitized"}
		recovered := Series{Name: tc.cityName + ":recovered"}
		for _, r := range Radii {
			rec, err := env.Recoverer(tc.cityName, r)
			if err != nil {
				return nil, err
			}
			var nPlain, nSan, nRec int
			for _, l := range locs {
				f := svc.Freq(l, r)
				if attack.Region(svc, f, r).Covers(l, r) {
					nPlain++
				}
				fs := f.Clone()
				for _, t := range san {
					fs[t] = 0
				}
				if attack.Region(svc, fs, r).Covers(l, r) {
					nSan++
				}
				if attack.Region(svc, rec.Recover(fs), r).Covers(l, r) {
					nRec++
				}
			}
			n := float64(len(locs))
			x := r / 1000
			plain.X = append(plain.X, x)
			plain.Y = append(plain.Y, float64(nPlain)/n)
			sanitized.X = append(sanitized.X, x)
			sanitized.Y = append(sanitized.Y, float64(nSan)/n)
			recovered.X = append(recovered.X, x)
			recovered.Y = append(recovered.Y, float64(nRec)/n)
		}
		fig.Series = append(fig.Series, plain, sanitized, recovered)
	}
	fig.Notes = append(fig.Notes,
		"paper BJ w/o: 0.184/0.306/0.440/0.642; sanitized: 0.126/0.153/0.126/0.016; recovered ~= w/o",
		"paper NYC w/o: 0.192/0.333/0.501/0.678; sanitized < 0.2; recovered ~= w/o")
	return fig, nil
}

// Fig6 reproduces Figure 6: the CDF of the fine-grained attack's search
// area, per dataset and query range, with MAXaux = 20. X values are the
// area as a fraction of the baseline πr².
func Fig6(env *Env) (*Figure, error) {
	fig := &Figure{
		ID:     "fig6",
		Title:  "Fine-grained attack: CDF of search area (fraction of πr²)",
		XLabel: "area/πr²",
		YLabel: "CDF",
	}
	fractions := []float64{0.0625, 0.125, 0.1875, 0.25, 0.5, 0.75, 1.0}
	cfg := attack.DefaultFineGrainedConfig()
	for _, dataset := range []string{DatasetBJTaxi, DatasetBJRandom, DatasetNYCCheckin, DatasetNYCRandom} {
		cityName, err := datasetCity(dataset)
		if err != nil {
			return nil, err
		}
		svc, err := env.Service(cityName)
		if err != nil {
			return nil, err
		}
		locs, err := env.Dataset(dataset)
		if err != nil {
			return nil, err
		}
		for _, r := range Radii {
			out, err := eval.FineGrainedSweep(svc, locs, r, cfg)
			if err != nil {
				return nil, err
			}
			if len(out.Areas) == 0 {
				fig.Notes = append(fig.Notes,
					fmt.Sprintf("%s r=%.1fkm: no successful attacks", dataset, r/1000))
				continue
			}
			cdf := stats.NewCDF(out.Areas)
			base := math.Pi * r * r
			s := Series{Name: fmt.Sprintf("%s r=%.1f", dataset, r/1000)}
			for _, fr := range fractions {
				s.X = append(s.X, fr)
				s.Y = append(s.Y, cdf.At(fr*base))
			}
			fig.Series = append(fig.Series, s)
		}
	}
	fig.Notes = append(fig.Notes,
		"paper: in ~80% of cases the search area is <= 1/4 of Cao et al.'s πr²")
	return fig, nil
}

// Fig7 reproduces Figure 7: mean search area versus the number of
// auxiliary anchors at r = 2 km.
func Fig7(env *Env) (*Figure, error) {
	fig := &Figure{
		ID:     "fig7",
		Title:  "Search area vs number of auxiliary anchors (r = 2 km)",
		XLabel: "MAXaux",
		YLabel: "mean area (km²)",
	}
	const r = 2000.0
	maxAuxes := []int{5, 10, 20, 40}
	for _, dataset := range []string{DatasetBJTaxi, DatasetBJRandom, DatasetNYCCheckin, DatasetNYCRandom} {
		cityName, err := datasetCity(dataset)
		if err != nil {
			return nil, err
		}
		svc, err := env.Service(cityName)
		if err != nil {
			return nil, err
		}
		locs, err := env.Dataset(dataset)
		if err != nil {
			return nil, err
		}
		s := Series{Name: dataset}
		for _, maxAux := range maxAuxes {
			out, err := eval.FineGrainedSweep(svc, locs, r, attack.FineGrainedConfig{MaxAux: maxAux})
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, float64(maxAux))
			s.Y = append(s.Y, stats.Mean(out.Areas)/1e6)
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes,
		"paper: mean areas fall from {1.70, 2.38, 1.92, 2.63} km² at 5 anchors to {0.60, 1.35, 0.26, 1.07} km² at 40",
		fmt.Sprintf("Cao et al. baseline is always πr² = %.2f km²", math.Pi*4))
	return fig, nil
}

// Fig8 reproduces Figure 8: success rate of the single-release attack
// versus the attack exploiting two successive releases, on Beijing taxi
// segments with changed vectors and gaps under 10 minutes.
func Fig8(env *Env) (*Figure, error) {
	fig := &Figure{
		ID:     "fig8",
		Title:  "Exploiting two successive queries (Beijing taxi)",
		XLabel: "r (km)",
		YLabel: "success rate",
	}
	svc, err := env.Service("beijing")
	if err != nil {
		return nil, err
	}
	trajs, err := env.TaxiTrajectories()
	if err != nil {
		return nil, err
	}
	segs := trajgen.Segments(trajs, 10*time.Minute, 100)
	maxSegs := env.Config().Locations
	single := Series{Name: "single release"}
	pair := Series{Name: "two successive releases"}
	cfg := attack.DefaultTrajectoryConfig()
	for _, r := range Radii {
		est, err := env.DistanceEstimator(r)
		if err != nil {
			return nil, err
		}
		var nSingle, nPair, total int
		for _, s := range segs {
			if total/2 >= maxSegs {
				break
			}
			f1 := svc.Freq(s.From.Pos, r)
			f2 := svc.Freq(s.To.Pos, r)
			if f1.Equal(f2) {
				continue // unchanged release carries no extra information
			}
			total += 2
			if attack.Region(svc, f1, r).Success {
				nSingle++
			}
			if attack.Region(svc, f2, r).Success {
				nSingle++
			}
			res := attack.Trajectory(svc, est,
				attack.Release{F: f1, T: s.From.T, R: r},
				attack.Release{F: f2, T: s.To.T, R: r},
				cfg)
			if res.SuccessFirst {
				nPair++
			}
			if res.SuccessSecond {
				nPair++
			}
		}
		if total == 0 {
			return nil, fmt.Errorf("experiments: Fig8: no usable segments at r=%.0f", r)
		}
		x := r / 1000
		single.X = append(single.X, x)
		single.Y = append(single.Y, float64(nSingle)/float64(total))
		pair.X = append(pair.X, x)
		pair.Y = append(pair.Y, float64(nPair)/float64(total))
	}
	fig.Series = []Series{single, pair}
	fig.Notes = append(fig.Notes,
		"paper gains: +0.203, +0.146, +0.09, +0.001 for r = 0.5/1/2/4 km")
	return fig, nil
}
