package ml

import (
	"fmt"
	"sort"
)

// SVMConfig configures SVM training.
type SVMConfig struct {
	// C is the soft-margin penalty; larger fits the training data harder.
	C float64
	// Epochs caps full passes of dual coordinate descent.
	Epochs int
	// Tol stops training early when the largest dual update in a pass
	// falls below it.
	Tol float64
}

// DefaultSVMConfig mirrors common library defaults.
func DefaultSVMConfig() SVMConfig {
	return SVMConfig{C: 1.0, Epochs: 60, Tol: 1e-4}
}

// binarySVM is a two-class kernel SVM scoring function built from dual
// coefficients over a shared Gram matrix.
type binarySVM struct {
	alphaY []float64 // α_i·y_i for every training row (sparse in practice)
}

// trainBinary fits a binary SVM on the Gram matrix with labels y in
// {-1, +1} by dual coordinate descent: each coordinate update is
// α_i ← clip(α_i + (1 − y_i·f(x_i)) / K̃_ii, 0, C), which is the exact
// maximizer of the dual objective in that coordinate.
func trainBinary(g *Gram, y []float64, cfg SVMConfig) binarySVM {
	n := g.Len()
	alpha := make([]float64, n)
	// grad[i] caches (Qα)_i where Q_ij = y_i y_j K̃_ij; the dual gradient
	// is 1 − grad[i].
	grad := make([]float64, n)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		maxDelta := 0.0
		for i := 0; i < n; i++ {
			qii := g.K[i][i]
			if qii <= 0 {
				continue
			}
			d := (1 - grad[i]) / qii
			newA := alpha[i] + d
			if newA < 0 {
				newA = 0
			} else if newA > cfg.C {
				newA = cfg.C
			}
			delta := newA - alpha[i]
			if delta == 0 {
				continue
			}
			alpha[i] = newA
			if ad := abs(delta); ad > maxDelta {
				maxDelta = ad
			}
			// Update cached gradients: (Qα)_j += y_j y_i K̃_ij Δ.
			yiD := y[i] * delta
			ki := g.K[i]
			for j := 0; j < n; j++ {
				grad[j] += y[j] * yiD * ki[j]
			}
		}
		if maxDelta < cfg.Tol {
			break
		}
	}
	alphaY := make([]float64, n)
	for i := range alphaY {
		alphaY[i] = alpha[i] * y[i]
	}
	return binarySVM{alphaY: alphaY}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// score evaluates the decision function f(q) = Σ α_i y_i K̃(x_i, q) given
// the precomputed biased kernel row.
func (m binarySVM) score(kRow []float64) float64 {
	s := 0.0
	for i, a := range m.alphaY {
		if a != 0 {
			s += a * kRow[i]
		}
	}
	return s
}

// SVC is a multi-class kernel SVM classifier trained one-vs-rest, the
// drop-in replacement for the paper's scikit-learn SVC with RBF kernel.
type SVC struct {
	gram    *Gram
	classes []int
	models  []binarySVM
}

// TrainSVC fits a one-vs-rest SVC on the precomputed Gram matrix and the
// integer labels y. It returns an error when labels are empty or have a
// single class (prediction would be trivial; callers should shortcut).
func TrainSVC(g *Gram, y []int, cfg SVMConfig) (*SVC, error) {
	if g.Len() == 0 || len(y) != g.Len() {
		return nil, fmt.Errorf("ml: TrainSVC: labels (%d) must match gram rows (%d)", len(y), g.Len())
	}
	classSet := make(map[int]struct{})
	for _, c := range y {
		classSet[c] = struct{}{}
	}
	classes := make([]int, 0, len(classSet))
	for c := range classSet {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	if len(classes) < 2 {
		return nil, fmt.Errorf("ml: TrainSVC: need ≥2 classes, got %d", len(classes))
	}
	models := make([]binarySVM, len(classes))
	bin := make([]float64, len(y))
	for ci, c := range classes {
		for i, yi := range y {
			if yi == c {
				bin[i] = 1
			} else {
				bin[i] = -1
			}
		}
		models[ci] = trainBinary(g, bin, cfg)
	}
	return &SVC{gram: g, classes: classes, models: models}, nil
}

// Classes returns the sorted class labels the model distinguishes.
func (s *SVC) Classes() []int {
	out := make([]int, len(s.classes))
	copy(out, s.classes)
	return out
}

// Predict returns the class with the highest one-vs-rest score for q
// (unscaled callers must apply the same scaler used in training).
func (s *SVC) Predict(q []float64) int {
	return s.PredictKernelRow(s.gram.evalRow(q))
}

// PredictKernelRow classifies from a precomputed kernel row (see
// Gram.EvalRow). Models trained on one Gram, like the per-type recovery
// classifiers, can share one row per query.
func (s *SVC) PredictKernelRow(kRow []float64) int {
	best := 0
	bestScore := s.models[0].score(kRow)
	for ci := 1; ci < len(s.models); ci++ {
		if sc := s.models[ci].score(kRow); sc > bestScore {
			bestScore = sc
			best = ci
		}
	}
	return s.classes[best]
}

// PredictBatch predicts every row of x.
func (s *SVC) PredictBatch(x [][]float64) []int {
	out := make([]int, len(x))
	for i, q := range x {
		out[i] = s.Predict(q)
	}
	return out
}
