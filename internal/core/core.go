// Package core implements TROUT, the paper's contribution: a hierarchical
// queue-time predictor for Slurm jobs. A binary classifier first decides
// whether a job will start within the cutoff (10 minutes); jobs classified
// as "long" are passed to a regression network that predicts the wait in
// minutes (Fig 1 / Algorithm 1). The classifier trains on SMOTE-balanced
// classes; the regressor trains with smooth-L1 loss on the long-job subset
// with ELU activations; both use Adam. All features pass through the
// natural-log transform (configurable for the scaling ablation).
package core

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/scaling"
	"repro/internal/smote"
	"repro/internal/tensor"
)

// HeadConfig configures one of the two networks.
type HeadConfig struct {
	Hidden     []int
	Activation nn.ActivationKind
	Dropout    float64
	BatchNorm  bool // regressor ablation only; the paper rejected it
	LearnRate  float64
	Epochs     int
	BatchSize  int
}

// Config configures TROUT training.
type Config struct {
	// CutoffMinutes splits "quick-start" from "long" jobs; the paper
	// settles on 10 after evaluating 5 and 30.
	CutoffMinutes float64
	Classifier    HeadConfig
	Regressor     HeadConfig
	// Scaler is applied to all features (paper: natural log).
	Scaler scaling.Kind
	// UseSMOTE balances the classifier's classes (paper: on).
	UseSMOTE bool
	SMOTE    smote.Config
	// RegressorLoss is the regression training loss (paper: smooth L1).
	RegressorLoss nn.LossKind
	// Workers is passed to the trainers; 0 = auto.
	Workers int
	Seed    int64
}

// DefaultConfig mirrors the paper's published architecture: a two-hidden-
// layer classifier and a three-hidden-layer ELU regressor over 33 features.
func DefaultConfig() Config {
	return Config{
		CutoffMinutes: 10,
		Classifier: HeadConfig{
			Hidden: []int{64, 32}, Activation: nn.ReLU, Dropout: 0.2,
			LearnRate: 1e-3, Epochs: 20, BatchSize: 256,
		},
		Regressor: HeadConfig{
			Hidden: []int{128, 64, 32}, Activation: nn.ELU, Dropout: 0.1,
			LearnRate: 1e-3, Epochs: 40, BatchSize: 256,
		},
		Scaler:        scaling.Log1p,
		UseSMOTE:      true,
		SMOTE:         smote.Config{K: 5},
		RegressorLoss: nn.SmoothL1,
	}
}

// Model is a trained TROUT bundle.
type Model struct {
	Cfg        Config
	Scaler     scaling.Scaler
	Classifier *nn.Network
	Regressor  *nn.Network
	NumInputs  int
}

// Prediction is the output of Algorithm 1 for one job.
type Prediction struct {
	// Long is the classifier's verdict: true when the job is predicted to
	// queue for at least the cutoff.
	Long bool
	// Prob is the classifier's probability of the job being long.
	Prob float64
	// Minutes is the regressor's estimate; only meaningful when Long.
	Minutes float64
}

// Message renders the CLI string exactly as Algorithm 1 specifies.
func (p Prediction) Message(cutoff float64) string {
	if p.Long {
		return fmt.Sprintf("Predicted to start in %d minutes", int(math.Round(p.Minutes)))
	}
	return fmt.Sprintf("Predicted to take less than %d minutes", int(cutoff))
}

// Train fits the hierarchical model on the rows of ds selected by trainIdx.
// The scaler is fit on training rows only.
func Train(ds *features.Dataset, trainIdx []int, cfg Config) (*Model, error) {
	return TrainCtx(context.Background(), ds, trainIdx, cfg)
}

// TrainHooks observes training progress across both heads. The head
// argument is "classifier" or "regressor". Hooks live outside Config on
// purpose: Config is gob-encoded into saved model bundles, and function
// fields would break that wire format.
type TrainHooks struct {
	// OnEpoch fires after every completed epoch of either head.
	OnEpoch func(head string, stats nn.EpochStats)
	// OnRollback fires after every divergence rollback.
	OnRollback func(head string, epoch, events int, lr float64)
}

// TrainCtx is Train with cooperative cancellation: both heads' fits stop
// between batches once ctx is cancelled. A diverging fit (non-finite losses
// past the trainer's patience) surfaces as an *nn.DivergenceError instead
// of silently producing a NaN model.
func TrainCtx(ctx context.Context, ds *features.Dataset, trainIdx []int, cfg Config) (*Model, error) {
	return TrainCtxHooked(ctx, ds, trainIdx, cfg, TrainHooks{})
}

// TrainCtxHooked is TrainCtx with per-epoch and rollback telemetry hooks.
func TrainCtxHooked(ctx context.Context, ds *features.Dataset, trainIdx []int, cfg Config, hooks TrainHooks) (*Model, error) {
	if len(trainIdx) < 10 {
		return nil, fmt.Errorf("core: only %d training samples", len(trainIdx))
	}
	if cfg.CutoffMinutes <= 0 {
		return nil, fmt.Errorf("core: non-positive cutoff %v", cfg.CutoffMinutes)
	}
	scaler, err := scaling.New(cfg.Scaler)
	if err != nil {
		return nil, err
	}
	rawTrain := make([][]float64, len(trainIdx))
	for k, i := range trainIdx {
		rawTrain[k] = ds.X[i]
	}
	scaler.Fit(rawTrain)
	X := scaling.TransformAll(scaler, rawTrain)
	dim := len(X[0])

	m := &Model{Cfg: cfg, Scaler: scaler, NumInputs: dim}

	// --- Classifier: long vs quick-start, on balanced classes. ---
	labels := make([]bool, len(trainIdx))
	for k, i := range trainIdx {
		labels[k] = ds.QueueMinutes[i] >= cfg.CutoffMinutes
	}
	cx, cy := X, labels
	if cfg.UseSMOTE {
		sc := cfg.SMOTE
		sc.Seed = cfg.Seed + 101
		cx, cy, err = smote.Balance(sc, X, labels)
		if err != nil {
			// Single-class training slices (e.g. tiny folds) fall back
			// to the unbalanced data.
			cx, cy = X, labels
		}
	}
	m.Classifier, err = trainClassifier(ctx, cx, cy, dim, cfg, hooks)
	if err != nil {
		return nil, err
	}

	// --- Regressor: log-minutes on the truly-long subset. ---
	var rx [][]float64
	var ry []float64
	for k, i := range trainIdx {
		if ds.QueueMinutes[i] >= cfg.CutoffMinutes {
			rx = append(rx, X[k])
			ry = append(ry, math.Log1p(ds.QueueMinutes[i]))
		}
	}
	if len(rx) < 10 {
		return nil, fmt.Errorf("core: only %d long jobs to train the regressor", len(rx))
	}
	m.Regressor, err = trainRegressor(ctx, rx, ry, dim, cfg, hooks)
	if err != nil {
		return nil, err
	}
	return m, nil
}

func toMatrices(X [][]float64, y []float64) (*tensor.Matrix, *tensor.Matrix) {
	xm := tensor.FromRows(X)
	ym := tensor.New(len(y), 1)
	for i, v := range y {
		ym.Set(i, 0, v)
	}
	return xm, ym
}

// hookCfg wires TrainHooks into one head's nn.TrainConfig.
func hookCfg(tc *nn.TrainConfig, head string, hooks TrainHooks) {
	if hooks.OnEpoch != nil {
		tc.OnEpochStats = func(stats nn.EpochStats) { hooks.OnEpoch(head, stats) }
	}
	if hooks.OnRollback != nil {
		tc.OnRollback = func(epoch, events int, lr float64) {
			hooks.OnRollback(head, epoch, events, lr)
		}
	}
}

func trainClassifier(ctx context.Context, X [][]float64, labels []bool, dim int, cfg Config, hooks TrainHooks) (*nn.Network, error) {
	h := cfg.Classifier
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	net := nn.NewNetwork(rng, nn.MLPSpecs(dim, h.Hidden, 1, h.Activation, nn.Sigmoid, h.Dropout)...)
	y := make([]float64, len(labels))
	for i, l := range labels {
		if l {
			y[i] = 1
		}
	}
	xm, ym := toMatrices(X, y)
	tr := nn.Trainer{
		Net: net,
		Opt: nn.NewAdam(h.LearnRate),
		Cfg: nn.TrainConfig{
			Loss: nn.BCE, Epochs: h.Epochs, BatchSize: h.BatchSize,
			Workers: cfg.Workers, Seed: cfg.Seed + 2,
		},
	}
	hookCfg(&tr.Cfg, "classifier", hooks)
	if _, err := tr.FitCtx(ctx, xm, ym); err != nil {
		return nil, fmt.Errorf("core: classifier training: %w", err)
	}
	return net, nil
}

func trainRegressor(ctx context.Context, X [][]float64, y []float64, dim int, cfg Config, hooks TrainHooks) (*nn.Network, error) {
	h := cfg.Regressor
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	var specs []nn.LayerSpec
	prev := dim
	for _, hid := range h.Hidden {
		specs = append(specs, nn.DenseSpec(prev, hid))
		if h.BatchNorm {
			specs = append(specs, nn.BatchNormSpec(hid))
		}
		specs = append(specs, nn.ActivationSpec(h.Activation))
		if h.Dropout > 0 {
			specs = append(specs, nn.DropoutSpec(h.Dropout))
		}
		prev = hid
	}
	specs = append(specs, nn.DenseSpec(prev, 1))
	net := nn.NewNetwork(rng, specs...)
	xm, ym := toMatrices(X, y)
	loss := cfg.RegressorLoss
	if loss == "" {
		loss = nn.SmoothL1
	}
	tr := nn.Trainer{
		Net: net,
		Opt: nn.NewAdam(h.LearnRate),
		Cfg: nn.TrainConfig{
			Loss: loss, Epochs: h.Epochs, BatchSize: h.BatchSize,
			Workers: cfg.Workers, Seed: cfg.Seed + 4,
		},
	}
	hookCfg(&tr.Cfg, "regressor", hooks)
	if _, err := tr.FitCtx(ctx, xm, ym); err != nil {
		return nil, fmt.Errorf("core: regressor training: %w", err)
	}
	return net, nil
}

// Predict runs Algorithm 1 on one raw (unscaled) feature row: a chunk of
// one, staged in stack arrays, so the warm path performs zero heap
// allocations.
func (m *Model) Predict(raw []float64) Prediction {
	rows, preds := [1][]float64{raw}, [1]Prediction{}
	m.predictChunk(rows[:], preds[:], obs.SpanHandle{})
	return preds[0]
}

// EnableFastInference compiles both heads onto the float32 inference path
// (transposed lane-padded weights, SSE kernels, f64-accumulating output
// head — see internal/nn/infer32.go). Training data and the f64 training
// path are untouched; predictions move within the documented f32
// tolerance. Returns false and leaves the f64 path active on both heads
// if either architecture cannot be compiled.
func (m *Model) EnableFastInference() bool {
	if !m.Classifier.EnableFloat32() || !m.Regressor.EnableFloat32() {
		m.Classifier.DisableFloat32()
		m.Regressor.DisableFloat32()
		return false
	}
	return true
}

// batchChunk bounds the rows of one predictChunk pass: large enough that
// the mini-batch matmuls amortize their loop overhead, small enough that
// the long-row index lives on the stack.
const batchChunk = 16

// PredictBatch runs Algorithm 1 on many raw feature rows, batchChunk rows
// per pass. Each result is what Predict returns for that row: both run
// predictChunk, and the kernels treat rows independently.
func (m *Model) PredictBatch(raw [][]float64) []Prediction {
	return m.PredictBatchTraced(raw, obs.SpanHandle{})
}

// PredictBatchTraced is the one body of PredictBatch: every chunk
// additionally records its scale, classify and regress stages as child
// spans of parent. The zero parent records nothing and reads no clock.
func (m *Model) PredictBatchTraced(raw [][]float64, parent obs.SpanHandle) []Prediction {
	preds := make([]Prediction, len(raw))
	for lo := 0; lo < len(raw); lo += batchChunk {
		hi := min(lo+batchChunk, len(raw))
		m.predictChunk(raw[lo:hi], preds[lo:hi], parent)
	}
	return preds
}

// predictChunk is the one body of Algorithm 1: it scales up to batchChunk
// rows into a pooled matrix, classifies them in one mini-batch pass and
// regresses the long-classified subset in another. Pooled buffers and
// workspaces; zero steady-state heap allocations.
func (m *Model) predictChunk(raw [][]float64, preds []Prediction, parent obs.SpanHandle) {
	n := len(raw)
	x := tensor.Get(n, m.NumInputs)
	defer tensor.Put(x)
	sp := parent.StartChild(obs.StageScale)
	for i, r := range raw {
		scaling.TransformInto(m.Scaler, x.Row(i), r)
	}
	sp.End()

	sp = parent.StartChild(obs.StageClassify)
	cws := m.Classifier.AcquireWorkspace()
	probs := m.Classifier.PredictInto(cws, x)
	var longBuf [batchChunk]int
	longIdx := longBuf[:0]
	for i := 0; i < n; i++ {
		p := probs.At(i, 0)
		preds[i] = Prediction{Prob: p, Long: p >= 0.5}
		if preds[i].Long {
			longIdx = append(longIdx, i)
		}
	}
	m.Classifier.ReleaseWorkspace(cws)
	sp.End()

	if len(longIdx) == 0 {
		return
	}
	sp = parent.StartChild(obs.StageRegress)
	rx := x // an all-long chunk regresses the classifier's matrix as is
	if len(longIdx) < n {
		rx = tensor.Get(len(longIdx), m.NumInputs)
		defer tensor.Put(rx)
		for k, i := range longIdx {
			copy(rx.Row(k), x.Row(i))
		}
	}
	rws := m.Regressor.AcquireWorkspace()
	mins := m.Regressor.PredictInto(rws, rx)
	for k, i := range longIdx {
		v := math.Expm1(mins.At(k, 0))
		if v < m.Cfg.CutoffMinutes {
			// The hierarchical contract: the regressor only speaks for
			// jobs past the cutoff.
			v = m.Cfg.CutoffMinutes
		}
		preds[i].Minutes = v
	}
	m.Regressor.ReleaseWorkspace(rws)
	sp.End()
}

// RegressMinutes applies only the regression head (used when the true label
// is known, e.g. fold evaluation on the truly-long subset).
func (m *Model) RegressMinutes(raw []float64) float64 {
	xm := tensor.Get(1, m.NumInputs)
	defer tensor.Put(xm)
	scaling.TransformInto(m.Scaler, xm.Data, raw)
	v := math.Expm1(m.Regressor.Predict1(xm.Data))
	if v < 0 {
		v = 0
	}
	return v
}

// ClassifyProb returns the classifier probability for one raw row.
func (m *Model) ClassifyProb(raw []float64) float64 {
	xm := tensor.Get(1, m.NumInputs)
	defer tensor.Put(xm)
	scaling.TransformInto(m.Scaler, xm.Data, raw)
	return m.Classifier.Predict1(xm.Data)
}

// modelDTO is the gob wire format of a trained bundle.
type modelDTO struct {
	Cfg        Config
	Scaler     scaling.State
	Classifier []byte
	Regressor  []byte
	NumInputs  int
}

// Save writes the trained bundle.
func (m *Model) Save(w io.Writer) error {
	cb, err := m.Classifier.Bytes()
	if err != nil {
		return err
	}
	rb, err := m.Regressor.Bytes()
	if err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(modelDTO{
		Cfg: m.Cfg, Scaler: scaling.StateOf(m.Scaler),
		Classifier: cb, Regressor: rb, NumInputs: m.NumInputs,
	})
}

// Load reads a bundle written by Save.
func Load(r io.Reader) (*Model, error) {
	var dto modelDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	scaler, err := scaling.FromState(dto.Scaler)
	if err != nil {
		return nil, err
	}
	cls, err := nn.FromBytes(dto.Classifier)
	if err != nil {
		return nil, err
	}
	reg, err := nn.FromBytes(dto.Regressor)
	if err != nil {
		return nil, err
	}
	return &Model{Cfg: dto.Cfg, Scaler: scaler, Classifier: cls, Regressor: reg, NumInputs: dto.NumInputs}, nil
}
