package trout

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/livestate"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/scaling"
)

// Snapshot is a live queue view used for deployment-side prediction.
type Snapshot = features.Snapshot

// Bundle is everything the prediction CLI needs: the trained hierarchical
// model, the runtime predictor that feeds its Pred-Runtime features, the
// cluster description the features were engineered against, and the
// degraded-mode predictors behind PredictWithFallback.
type Bundle struct {
	Model   *core.Model
	Runtime *features.RuntimePredictor
	Cluster ClusterSpec
	// Fallback holds the tier-2/tier-3 predictors the serving path drops
	// to when the neural network errors or emits non-finite output.
	Fallback FallbackSpec
	// Fingerprint is the SHA-256 of the bundle's gob encoding, set by
	// Save/LoadBundle (empty for in-memory bundles that were never
	// serialized). It is the model's identity everywhere the system needs
	// to say *which* model: /health, the trout_model_info gauge, and the
	// control plane's content-addressed registry. Not part of the wire
	// format — it is recomputed from the bytes on every load, so a
	// corrupted file can never claim a healthy identity.
	Fingerprint string
}

// FallbackSpec is the degraded-mode half of a bundle. Either tier may be
// absent (e.g. bundles written before fallbacks existed); the chain simply
// skips missing tiers.
type FallbackSpec struct {
	// Baseline is the tier-2 gradient-boosted regressor over the same 33
	// features as the NN, trained on log1p queue minutes — the stand-in
	// for the paper's XGBoost baseline, kept deliberately independent of
	// the NN stack so a poisoned network cannot take it down too.
	Baseline *baselines.GBDT
	// PartitionMedianMinutes is the tier-3 heuristic: the training-set
	// median queue time per partition.
	PartitionMedianMinutes map[string]float64
	// GlobalMedianMinutes answers for partitions absent from the map.
	GlobalMedianMinutes float64
}

// TieredPrediction is a Prediction tagged with the fallback tier that
// produced it (resilience.TierNN, TierBaseline, or TierHeuristic).
type TieredPrediction struct {
	core.Prediction
	Tier string
}

// fallbackGBDTConfig keeps the tier-2 model cheap to train and evaluate:
// it is a safety net, not a contender.
func fallbackGBDTConfig(seed int64) baselines.GBDTConfig {
	return baselines.GBDTConfig{
		Rounds:            40,
		LearnRate:         0.1,
		Tree:              baselines.TreeConfig{MaxDepth: 4, MinLeaf: 20},
		SubsampleFraction: 0.8,
		Seed:              seed,
	}
}

// NewBundle assembles a deployment bundle from a trained model and the
// dataset it was trained on, fitting the fallback predictors (a small
// GBDT and per-partition medians) from the same dataset.
func NewBundle(m *Model, ds *Dataset, cluster *ClusterSpec) (*Bundle, error) {
	if m == nil || ds == nil || ds.Runtime == nil || cluster == nil {
		return nil, fmt.Errorf("trout: bundle needs a model, dataset with runtime predictor, and cluster")
	}
	b := &Bundle{Model: m, Runtime: ds.Runtime, Cluster: *cluster}

	gbdt := baselines.NewGBDT(fallbackGBDTConfig(m.Cfg.Seed + 211))
	logMinutes := make([]float64, len(ds.QueueMinutes))
	for i, q := range ds.QueueMinutes {
		logMinutes[i] = math.Log1p(q)
	}
	if err := gbdt.Fit(ds.X, logMinutes); err != nil {
		return nil, fmt.Errorf("trout: fallback baseline: %w", err)
	}
	b.Fallback.Baseline = gbdt

	byPartition := map[string][]float64{}
	for i := range ds.Jobs {
		p := ds.Jobs[i].Partition
		byPartition[p] = append(byPartition[p], ds.QueueMinutes[i])
	}
	b.Fallback.PartitionMedianMinutes = make(map[string]float64, len(byPartition))
	for p, qs := range byPartition {
		b.Fallback.PartitionMedianMinutes[p] = resilience.Median(qs)
	}
	b.Fallback.GlobalMedianMinutes = resilience.Median(ds.QueueMinutes)
	return b, nil
}

// EnableFastInference compiles the bundle's model onto the float32
// serving path (transposed lane-padded weights, SSE kernels — see
// internal/nn/infer32.go). The fallback GBDT already serves from its
// flattened ensemble unconditionally, so this switch only concerns the
// NN tier. Returns false and leaves the float64 path active when the
// bundle has no model or its architecture cannot be compiled.
func (b *Bundle) EnableFastInference() bool {
	return b.Model != nil && b.Model.EnableFastInference()
}

// PredictSnapshot runs Algorithm 1 on a live queue snapshot.
func (b *Bundle) PredictSnapshot(snap *Snapshot) (Prediction, error) {
	row, err := features.SnapshotRow(snap, &b.Cluster, b.Runtime)
	if err != nil {
		return Prediction{}, err
	}
	return b.Model.Predict(row), nil
}

// FeatureRow exposes the engineered feature vector for a snapshot (used by
// the dashboard service's debugging endpoint).
func (b *Bundle) FeatureRow(snap *Snapshot) ([]float64, error) {
	return features.SnapshotRow(snap, &b.Cluster, b.Runtime)
}

// checkPrediction rejects non-finite or out-of-range predictions — the
// gate each fallback tier must pass before its answer is served. Minutes
// must round to an int64, the count the message prints: past it, the
// conversion wraps and the answer would read as a negative wait.
func checkPrediction(p core.Prediction) error {
	if !resilience.Finite(p.Prob, p.Minutes) {
		return fmt.Errorf("non-finite prediction (prob=%v minutes=%v)", p.Prob, p.Minutes)
	}
	if p.Prob < 0 || p.Prob > 1 {
		return fmt.Errorf("probability %v outside [0, 1]", p.Prob)
	}
	if p.Minutes < 0 {
		return fmt.Errorf("negative minutes %v", p.Minutes)
	}
	if math.Round(p.Minutes) >= math.MaxInt64 {
		return fmt.Errorf("minutes %v beyond a printable count", p.Minutes)
	}
	return nil
}

// minutesPrediction converts a raw queue-minutes estimate into a
// Prediction consistent with the hierarchical contract: Long iff the
// estimate reaches the cutoff, with a smooth pseudo-probability that
// crosses 0.5 exactly at the cutoff.
func minutesPrediction(minutes, cutoff float64) core.Prediction {
	if minutes < 0 || math.IsNaN(minutes) {
		minutes = 0
	}
	p := core.Prediction{Prob: minutes / (minutes + cutoff), Long: minutes >= cutoff}
	if p.Long {
		p.Minutes = minutes
	}
	return p
}

// PredictWithFallback runs the tiered prediction chain on a snapshot:
//
//	nn        — the hierarchical model (Algorithm 1)
//	baseline  — the bundled GBDT over the same features
//	heuristic — the partition-median queue time from training
//
// A tier is skipped when it errors, panics, or emits a non-finite or
// out-of-range value; the answer is tagged with the tier that produced it.
// Only a snapshot whose feature row cannot be built (e.g. an unknown
// partition) returns an error — that is a bad request, not a degraded
// model. It is PredictBatchWithFallback on a batch of one.
func (b *Bundle) PredictWithFallback(snap *Snapshot) (TieredPrediction, error) {
	res := b.predictBatch(new(predictArena), []*Snapshot{snap}, obs.SpanHandle{})[0]
	return res.TieredPrediction, res.Err
}

// cutoffMinutes is the Long-verdict threshold: a bundle with a corrupt
// (nil) model still serves the lower tiers with the paper's default cutoff.
func (b *Bundle) cutoffMinutes() float64 {
	if b.Model != nil && b.Model.Cfg.CutoffMinutes > 0 {
		return b.Model.Cfg.CutoffMinutes
	}
	return 10.0
}

// degradedSteps are the tier-2 (bundled GBDT) and tier-3 (partition median)
// fallback steps for one feature row — everything in the chain below the
// neural network.
func (b *Bundle) degradedSteps(row []float64, partition string, cutoff float64) []resilience.Step[core.Prediction] {
	return []resilience.Step[core.Prediction]{
		{
			Tier: resilience.TierBaseline,
			Predict: func() (core.Prediction, error) {
				if b.Fallback.Baseline == nil {
					return core.Prediction{}, fmt.Errorf("no baseline predictor in bundle")
				}
				return minutesPrediction(math.Expm1(b.Fallback.Baseline.Predict(row)), cutoff), nil
			},
			Check: checkPrediction,
		},
		{
			Tier: resilience.TierHeuristic,
			Predict: func() (core.Prediction, error) {
				med, ok := b.Fallback.PartitionMedianMinutes[partition]
				if !ok {
					med = b.Fallback.GlobalMedianMinutes
				}
				return minutesPrediction(med, cutoff), nil
			},
			Check: checkPrediction,
		},
	}
}

// BatchResult is one job's outcome from PredictBatchWithFallback: either a
// tiered prediction or a per-job error — one job's failure never fails the
// batch. An error with an empty Tier is a feature row that could not be
// built (a bad request); with Tier "error", every tier refused.
type BatchResult struct {
	TieredPrediction
	Err error
}

// PredictBatchWithFallback runs the tiered chain over many snapshots at
// once. Healthy path: every feature row goes through the model's mini-batch
// matmuls (per chunk: classifier once, regressor once over the
// long-classified subset). Rows whose NN answer fails the finite/range
// check — or every row, when the model is absent or the forward pass
// panics — drop to the per-row tier-2/3 chain.
func (b *Bundle) PredictBatchWithFallback(snaps []*Snapshot) []BatchResult {
	return b.predictBatch(new(predictArena), snaps, obs.SpanHandle{})
}

// predictBatch is the one body of the tiered chain, taking every row,
// prediction and result from a (the returned results are a's), and
// recording stage spans under parent: featurize covers row staging, scale,
// classify and regress each model chunk, and fallback the degraded per-row
// chains (one span around all fallen-back rows).
func (b *Bundle) predictBatch(a *predictArena, snaps []*Snapshot, parent obs.SpanHandle) []BatchResult {
	results := resize(a.results, len(snaps))
	a.results = results

	// Stage the feature rows; per-row failures are bad requests, not
	// batch failures.
	sp := parent.StartChild(obs.StageFeaturize)
	const width = features.NumFeatures
	a.slab = resize(a.slab, len(snaps)*width)
	rows, rowOf := a.rows[:0], a.rowOf[:0] // rows index -> snaps index
	for i, snap := range snaps {
		results[i] = BatchResult{}
		row := a.slab[i*width : (i+1)*width : (i+1)*width]
		if err := features.SnapshotRowInto(row, snap, &b.Cluster, b.Runtime); err != nil {
			results[i].Err = err
			continue
		}
		rows = append(rows, row)
		rowOf = append(rowOf, i)
	}
	a.rows, a.rowOf = rows, rowOf
	sp.End()
	if len(rows) == 0 {
		return results
	}

	preds := resize(a.preds, len(rows))
	a.preds = preds
	ok := b.tryPredictBatch(preds, rows, parent)
	var fellBack []int // rows indices the NN tier could not answer
	for k, i := range rowOf {
		if ok && checkPrediction(preds[k]) == nil {
			results[i].TieredPrediction = TieredPrediction{Prediction: preds[k], Tier: resilience.TierNN}
			continue
		}
		fellBack = append(fellBack, k)
	}
	if len(fellBack) == 0 {
		return results
	}

	sp = parent.StartChild(obs.StageFallback)
	cutoff := b.cutoffMinutes()
	for _, k := range fellBack {
		i := rowOf[k]
		pred, tier, err := resilience.Run(b.degradedSteps(rows[k], snaps[i].Target.Partition, cutoff))
		results[i] = BatchResult{TieredPrediction: TieredPrediction{Prediction: pred, Tier: tier}, Err: err}
	}
	sp.End()
	return results
}

// tryPredictBatch is the NN tier, answering rows[k] into preds[k]: it
// reports false when the model is missing or the forward pass panics
// (per-tier panic recovery, as resilience.Run gives the tiers below).
func (b *Bundle) tryPredictBatch(preds []core.Prediction, rows [][]float64, parent obs.SpanHandle) (ok bool) {
	if b.Model == nil {
		return false
	}
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	b.Model.PredictBatchInto(preds, rows, parent)
	return true
}

// SnapshotAtInstant reconstructs queue state at an arbitrary instant by
// scanning the whole trace, with target as the job being predicted for —
// the offline O(N) path (cmd/trout) and the
// oracle the livestate engine's indexed extraction is tested against.
// Open intervals are honored: a job with Start == 0 is still pending and
// End == 0 still running, so live traces keep their genuinely-queued jobs.
func SnapshotAtInstant(tr *Trace, at int64, target Job) *Snapshot {
	snap := &Snapshot{Now: at, Target: target}
	for i := range tr.Jobs {
		j := tr.Jobs[i]
		switch livestate.PhaseAt(&j, at) {
		case livestate.PhasePending:
			snap.Pending = append(snap.Pending, j)
		case livestate.PhaseRunning:
			snap.Running = append(snap.Running, j)
		}
		if j.Submit >= at-86400 && j.Submit < at {
			snap.History = append(snap.History, j)
		}
	}
	return snap
}

// SnapshotFromTrace reconstructs the queue state a trace job observed at
// its eligibility instant — what the CLI does when pointed at an accounting
// file and a job ID. The job is not part of its own queue, but its own
// submission stays in its user history when it predates the instant
// (dependency-held jobs).
func SnapshotFromTrace(tr *Trace, jobID int) (*Snapshot, error) {
	for i := range tr.Jobs {
		if tr.Jobs[i].ID != jobID {
			continue
		}
		snap := SnapshotAtInstant(tr, tr.Jobs[i].Eligible, tr.Jobs[i])
		isSelf := func(j Job) bool { return j.ID == jobID }
		snap.Pending = slices.DeleteFunc(snap.Pending, isSelf)
		snap.Running = slices.DeleteFunc(snap.Running, isSelf)
		return snap, nil
	}
	return nil, fmt.Errorf("trout: job %d not found in trace", jobID)
}

// bundleDTO is the gob wire form of a Bundle. The fallback fields are
// optional on the wire: bundles written before they existed decode with
// them zero, and the prediction chain skips the missing tiers.
type bundleDTO struct {
	Model    []byte
	Runtime  []byte
	Cluster  ClusterSpec
	Baseline []byte
	// Medians is the older form of PartitionMedians, read but never
	// written: gob writes a map in Go's random iteration order, so the
	// same bundle saved twice gave two byte streams and two fingerprints.
	Medians map[string]float64
	// PartitionMedians holds the per-partition medians sorted by name.
	PartitionMedians []partitionMedian
	GlobalMedian     float64
}

// partitionMedian is one entry of the tier-3 median table on the wire.
type partitionMedian struct {
	Partition string
	Minutes   float64
}

// Save writes the bundle and stamps b.Fingerprint with the SHA-256 of the
// written bytes, so a freshly saved bundle knows its own identity.
func (b *Bundle) Save(w io.Writer) error {
	var mb bytes.Buffer
	if err := b.Model.Save(&mb); err != nil {
		return err
	}
	rb, err := b.Runtime.Bytes()
	if err != nil {
		return err
	}
	dto := bundleDTO{
		Model: mb.Bytes(), Runtime: rb, Cluster: b.Cluster,
		GlobalMedian: b.Fallback.GlobalMedianMinutes,
	}
	for name, minutes := range b.Fallback.PartitionMedianMinutes {
		dto.PartitionMedians = append(dto.PartitionMedians, partitionMedian{name, minutes})
	}
	slices.SortFunc(dto.PartitionMedians, func(x, y partitionMedian) int { return strings.Compare(x.Partition, y.Partition) })
	if b.Fallback.Baseline != nil {
		if dto.Baseline, err = b.Fallback.Baseline.MarshalBinary(); err != nil {
			return err
		}
	}
	h := sha256.New()
	if err := gob.NewEncoder(io.MultiWriter(w, h)).Encode(dto); err != nil {
		return err
	}
	b.Fingerprint = hex.EncodeToString(h.Sum(nil))
	return nil
}

// LoadBundle reads a bundle written by Save. The returned bundle's
// Fingerprint is the SHA-256 of the bytes actually consumed, so identity
// always reflects what was read, never what a manifest claimed.
func LoadBundle(r io.Reader) (*Bundle, error) {
	h := sha256.New()
	var dto bundleDTO
	if err := gob.NewDecoder(io.TeeReader(r, h)).Decode(&dto); err != nil {
		return nil, fmt.Errorf("trout: load bundle: %w", err)
	}
	m, err := core.Load(bytes.NewReader(dto.Model))
	if err != nil {
		return nil, err
	}
	rp, err := features.RuntimePredictorFromBytes(dto.Runtime)
	if err != nil {
		return nil, err
	}
	b := &Bundle{Model: m, Runtime: rp, Cluster: dto.Cluster}
	if len(dto.Baseline) > 0 {
		gbdt := &baselines.GBDT{}
		if err := gbdt.UnmarshalBinary(dto.Baseline); err != nil {
			return nil, fmt.Errorf("trout: load bundle baseline: %w", err)
		}
		b.Fallback.Baseline = gbdt
	}
	b.Fallback.PartitionMedianMinutes = dto.Medians
	if len(dto.PartitionMedians) > 0 {
		b.Fallback.PartitionMedianMinutes = make(map[string]float64, len(dto.PartitionMedians))
		for _, pm := range dto.PartitionMedians {
			b.Fallback.PartitionMedianMinutes[pm.Partition] = pm.Minutes
		}
	}
	b.Fallback.GlobalMedianMinutes = dto.GlobalMedian
	b.Fingerprint = hex.EncodeToString(h.Sum(nil))
	return b, nil
}

// IncompatibleBundleError marks a candidate bundle that cannot serve
// behind the current prediction pipeline — wrong feature width, missing
// or unknown scaler, missing runtime predictor, or a cluster spec that
// lost partitions the serving pipeline still routes. Returned by
// CompatibleWith and the service's swap path so an incompatible swap is a
// structured 4xx on the admin endpoint instead of a panic at first
// predict.
type IncompatibleBundleError struct {
	Reason string
}

func (e *IncompatibleBundleError) Error() string {
	return "trout: incompatible bundle: " + e.Reason
}

// CompatibleWith checks that b can replace cur behind the serving
// pipeline: the model must exist, take the pipeline's feature-vector
// width, carry a scaler of a known kind and a runtime predictor (both are
// consulted on every SnapshotRow), and its cluster spec must cover every
// partition cur serves — a bundle missing a partition would turn every
// prediction for that partition into a 400. A nil cur skips the
// partition-coverage check.
func (b *Bundle) CompatibleWith(cur *Bundle) error {
	bad := func(format string, args ...any) error {
		return &IncompatibleBundleError{Reason: fmt.Sprintf(format, args...)}
	}
	if b == nil || b.Model == nil {
		return bad("no model")
	}
	if b.Model.NumInputs != features.NumFeatures {
		return bad("model takes %d features, pipeline produces %d", b.Model.NumInputs, features.NumFeatures)
	}
	if b.Model.Scaler == nil {
		return bad("model has no fitted scaler")
	}
	if _, err := scaling.New(b.Model.Scaler.Kind()); err != nil {
		return bad("unknown scaler kind %q", b.Model.Scaler.Kind())
	}
	if b.Runtime == nil {
		return bad("no runtime predictor")
	}
	if cur != nil {
		for i := range cur.Cluster.Partitions {
			name := cur.Cluster.Partitions[i].Name
			if b.Cluster.Partition(name) == nil {
				return bad("cluster spec lost partition %q", name)
			}
		}
	}
	return nil
}

// SaveFile writes the bundle to a path.
func (b *Bundle) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := b.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadBundleFile reads a bundle from a path.
func LoadBundleFile(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadBundle(f)
}
