// Package ml implements the online machine-learning algorithms behind the
// IFoT flow-analysis function. The paper's prototype delegated to Jubatus;
// this package provides equivalent from-scratch learners: online linear
// classifiers (Perceptron, Passive-Aggressive, AROW), Passive-Aggressive
// regression, streaming anomaly detection, sequential k-means clustering,
// and Jubatus-style MIX model averaging for distributed training.
//
// Learner internals are dense: feature names are interned to uint32 IDs
// through the process-wide feature.Symbols table and weights live in flat
// []float64 slices indexed by ID. The map-based feature.Vector API is kept
// as the interchange form (checkpoints, MIX test oracles) via thin adapters.
package ml

import (
	"errors"
	"math"
	"sort"
	"sync"

	"github.com/ifot-middleware/ifot/internal/feature"
)

// Errors returned by learners.
var (
	ErrUntrained    = errors.New("ml: model has no trained classes")
	ErrUnknownLabel = errors.New("ml: unknown label")
)

// LabelScore pairs a class label with its decision score.
type LabelScore struct {
	Label string
	Score float64
}

// Classifier is an online multi-class classifier. Implementations are safe
// for concurrent use.
type Classifier interface {
	// Train updates the model with one labelled example.
	Train(v feature.Vector, label string)
	// Classify returns the highest-scoring label. It returns
	// ErrUntrained before any Train call.
	Classify(v feature.Vector) (string, error)
	// Scores returns the decision scores for every known label, highest
	// first.
	Scores(v feature.Vector) []LabelScore
	// Labels returns the known class labels in sorted order.
	Labels() []string
}

// linearModel holds one-vs-rest weight vectors per label, dense-indexed by
// interned feature ID.
type linearModel struct {
	mu       sync.RWMutex
	syms     *feature.Symbols
	labels   []string       // label index -> name, in first-Train order
	labelIdx map[string]int // name -> label index
	weights  [][]float64    // [label index][feature ID]

	// Delta-MIX tracking (see delta.go), off until EnableDeltaTracking:
	// acc accumulates training updates since the last ExportDeltaInto;
	// dirty lists the touched feature IDs per label, with inDirty as its
	// membership bitmap so marking stays O(1) per update.
	trackDeltas bool
	acc         [][]float64
	dirty       [][]uint32
	inDirty     [][]bool
}

func newLinearModel() linearModel {
	return linearModel{
		syms:     feature.DefaultSymbols(),
		labelIdx: make(map[string]int),
	}
}

// toDense interns v into a pooled DenseVec; callers must PutDense it.
func (m *linearModel) toDense(v feature.Vector) *feature.DenseVec {
	dv := feature.GetDense()
	dv.AppendVector(m.syms, v)
	return dv
}

func (m *linearModel) ensureLabelLocked(label string) int {
	if li, ok := m.labelIdx[label]; ok {
		return li
	}
	li := len(m.labels)
	m.labelIdx[label] = li
	m.labels = append(m.labels, label)
	m.weights = append(m.weights, nil)
	if m.trackDeltas {
		m.acc = append(m.acc, nil)
		m.dirty = append(m.dirty, nil)
		m.inDirty = append(m.inDirty, nil)
	}
	return li
}

func (m *linearModel) scoresDense(dv *feature.DenseVec) []LabelScore {
	m.mu.RLock()
	out := make([]LabelScore, len(m.labels))
	for i, label := range m.labels {
		out[i] = LabelScore{Label: label, Score: dv.Dot(m.weights[i])}
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// bestDense is the single-pass argmax with the same tie-break as
// scoresDense (score descending, then label ascending).
func (m *linearModel) bestDense(dv *feature.DenseVec) (LabelScore, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.labels) == 0 {
		return LabelScore{}, ErrUntrained
	}
	best := LabelScore{Label: m.labels[0], Score: dv.Dot(m.weights[0])}
	for i := 1; i < len(m.labels); i++ {
		s := dv.Dot(m.weights[i])
		if s > best.Score || (s == best.Score && m.labels[i] < best.Label) {
			best = LabelScore{Label: m.labels[i], Score: s}
		}
	}
	return best, nil
}

func (m *linearModel) scores(v feature.Vector) []LabelScore {
	dv := m.toDense(v)
	out := m.scoresDense(dv)
	feature.PutDense(dv)
	return out
}

func (m *linearModel) classify(v feature.Vector) (string, error) {
	dv := m.toDense(v)
	best, err := m.bestDense(dv)
	feature.PutDense(dv)
	if err != nil {
		return "", err
	}
	return best.Label, nil
}

func (m *linearModel) labelList() []string {
	m.mu.RLock()
	out := append([]string(nil), m.labels...)
	m.mu.RUnlock()
	sort.Strings(out)
	return out
}

// marginsLocked returns the current score for the true label (by index) and
// the best competing label index + score (-1 if none).
func (m *linearModel) marginsLocked(dv *feature.DenseVec, li int) (truthScore float64, rival int, rivalScore float64) {
	truthScore = dv.Dot(m.weights[li])
	rival, rivalScore = -1, math.Inf(-1)
	for i := range m.weights {
		if i == li {
			continue
		}
		if s := dv.Dot(m.weights[i]); s > rivalScore {
			rival, rivalScore = i, s
		}
	}
	return truthScore, rival, rivalScore
}

// Perceptron is the classic online mistake-driven linear classifier.
type Perceptron struct {
	model linearModel
	// LearningRate defaults to 1.
	learningRate float64
}

var _ DenseClassifier = (*Perceptron)(nil)

// NewPerceptron returns a Perceptron with the given learning rate
// (<=0 means 1).
func NewPerceptron(learningRate float64) *Perceptron {
	if learningRate <= 0 {
		learningRate = 1
	}
	return &Perceptron{model: newLinearModel(), learningRate: learningRate}
}

// Train implements Classifier.
func (p *Perceptron) Train(v feature.Vector, label string) {
	dv := p.model.toDense(v)
	p.TrainDense(dv, label)
	feature.PutDense(dv)
}

// TrainDense implements DenseClassifier.
func (p *Perceptron) TrainDense(dv *feature.DenseVec, label string) {
	m := &p.model
	m.mu.Lock()
	defer m.mu.Unlock()
	li := m.ensureLabelLocked(label)
	truth, rival, rivalScore := m.marginsLocked(dv, li)
	if rival < 0 {
		return // first label ever: nothing to separate yet
	}
	if truth <= rivalScore {
		m.addScaledLocked(li, dv, p.learningRate)
		m.addScaledLocked(rival, dv, -p.learningRate)
	}
}

// BestDense implements DenseClassifier.
func (p *Perceptron) BestDense(dv *feature.DenseVec) (LabelScore, error) {
	return p.model.bestDense(dv)
}

// Classify implements Classifier.
func (p *Perceptron) Classify(v feature.Vector) (string, error) { return p.model.classify(v) }

// Scores implements Classifier.
func (p *Perceptron) Scores(v feature.Vector) []LabelScore { return p.model.scores(v) }

// Labels implements Classifier.
func (p *Perceptron) Labels() []string { return p.model.labelList() }

// PassiveAggressive is the PA-I online classifier (Crammer et al. 2006),
// the default classifier in Jubatus.
type PassiveAggressive struct {
	model linearModel
	// c is the aggressiveness cap (PA-I regularization).
	c float64
}

var _ DenseClassifier = (*PassiveAggressive)(nil)

// NewPassiveAggressive returns a PA-I classifier with regularization c
// (<=0 means 1).
func NewPassiveAggressive(c float64) *PassiveAggressive {
	if c <= 0 {
		c = 1
	}
	return &PassiveAggressive{model: newLinearModel(), c: c}
}

// Train implements Classifier.
func (p *PassiveAggressive) Train(v feature.Vector, label string) {
	dv := p.model.toDense(v)
	p.TrainDense(dv, label)
	feature.PutDense(dv)
}

// TrainDense implements DenseClassifier.
func (p *PassiveAggressive) TrainDense(dv *feature.DenseVec, label string) {
	m := &p.model
	m.mu.Lock()
	defer m.mu.Unlock()
	li := m.ensureLabelLocked(label)
	truth, rival, rivalScore := m.marginsLocked(dv, li)
	if rival < 0 {
		return
	}
	loss := 1 - (truth - rivalScore) // hinge loss with margin 1
	if loss <= 0 {
		return
	}
	sq := dv.SquaredNorm()
	if sq == 0 {
		return
	}
	// PA-I step: tau = min(C, loss / (2*||v||^2)); the factor 2 accounts
	// for updating both the true and rival weight vectors.
	tau := loss / (2 * sq)
	if tau > p.c {
		tau = p.c
	}
	m.addScaledLocked(li, dv, tau)
	m.addScaledLocked(rival, dv, -tau)
}

// BestDense implements DenseClassifier.
func (p *PassiveAggressive) BestDense(dv *feature.DenseVec) (LabelScore, error) {
	return p.model.bestDense(dv)
}

// Classify implements Classifier.
func (p *PassiveAggressive) Classify(v feature.Vector) (string, error) { return p.model.classify(v) }

// Scores implements Classifier.
func (p *PassiveAggressive) Scores(v feature.Vector) []LabelScore { return p.model.scores(v) }

// Labels implements Classifier.
func (p *PassiveAggressive) Labels() []string { return p.model.labelList() }

// AROW implements Adaptive Regularization of Weight Vectors (Crammer et
// al. 2009) with diagonal confidence, as offered by Jubatus. It adapts the
// per-feature learning rate by tracked variance, making it robust to noisy
// streams.
type AROW struct {
	model linearModel
	// variances parallels model.weights: per-label diagonal covariance,
	// indexed by feature ID. Entries beyond a slice's length (and new
	// entries, filled by growOnes) default to the prior variance 1.
	variances [][]float64
	r         float64
}

var _ DenseClassifier = (*AROW)(nil)

// NewAROW returns an AROW classifier with regularization r (<=0 means 0.1).
func NewAROW(r float64) *AROW {
	if r <= 0 {
		r = 0.1
	}
	return &AROW{model: newLinearModel(), r: r}
}

func varianceAt(vs []float64, id uint32) float64 {
	if int(id) < len(vs) {
		return vs[id]
	}
	return 1
}

// Train implements Classifier.
func (a *AROW) Train(v feature.Vector, label string) {
	dv := a.model.toDense(v)
	a.TrainDense(dv, label)
	feature.PutDense(dv)
}

// TrainDense implements DenseClassifier.
func (a *AROW) TrainDense(dv *feature.DenseVec, label string) {
	m := &a.model
	m.mu.Lock()
	defer m.mu.Unlock()
	li := m.ensureLabelLocked(label)
	for len(a.variances) < len(m.labels) {
		a.variances = append(a.variances, nil)
	}
	truth, rival, rivalScore := m.marginsLocked(dv, li)
	if rival < 0 {
		return
	}
	loss := 1 - (truth - rivalScore)
	if loss <= 0 {
		return
	}
	// Confidence: x^T Sigma x using the two diagonal covariances.
	var confidence float64
	for i, id := range dv.IDs {
		x := dv.Vals[i]
		confidence += x * x * (varianceAt(a.variances[li], id) + varianceAt(a.variances[rival], id))
	}
	beta := 1 / (confidence + a.r)
	alpha := loss * beta

	if dv.Len() > 0 {
		n := dv.MaxID() + 1
		m.weights[li] = feature.GrowDense(m.weights[li], n)
		m.weights[rival] = feature.GrowDense(m.weights[rival], n)
		a.variances[li] = growOnes(a.variances[li], n)
		a.variances[rival] = growOnes(a.variances[rival], n)
	}
	for i, id := range dv.IDs {
		x := dv.Vals[i]
		vt := a.variances[li][id]
		vr := a.variances[rival][id]
		m.weights[li][id] += alpha * vt * x
		m.weights[rival][id] -= alpha * vr * x
		a.variances[li][id] = vt - beta*vt*vt*x*x
		a.variances[rival][id] = vr - beta*vr*vr*x*x
	}
}

// BestDense implements DenseClassifier.
func (a *AROW) BestDense(dv *feature.DenseVec) (LabelScore, error) {
	return a.model.bestDense(dv)
}

// Classify implements Classifier.
func (a *AROW) Classify(v feature.Vector) (string, error) { return a.model.classify(v) }

// Scores implements Classifier.
func (a *AROW) Scores(v feature.Vector) []LabelScore { return a.model.scores(v) }

// Labels implements Classifier.
func (a *AROW) Labels() []string { return a.model.labelList() }
