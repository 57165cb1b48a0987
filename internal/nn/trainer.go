package nn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/tensor"
)

// TrainConfig controls mini-batch training.
type TrainConfig struct {
	Loss      LossKind
	Epochs    int
	BatchSize int
	// Workers is the number of data-parallel gradient workers per batch.
	// 0 means min(GOMAXPROCS, 4); 1 forces the serial path.
	Workers int
	// OnEpochStats, when non-nil, receives telemetry after each epoch:
	// the training loss, the last batch's global gradient L2 norm and the
	// learning rate in effect. Setting it enables the (cheap, alloc-free)
	// per-batch norm computation.
	OnEpochStats func(stats EpochStats)
	// OnRollback, when non-nil, is invoked after each divergence rollback
	// with the epoch, the cumulative divergent-event count, and the
	// post-halving learning rate.
	OnRollback func(epoch, events int, lr float64)
	// Seed drives batch shuffling and worker dropout masks.
	Seed int64
	// LossFunc, when non-nil, overrides Loss with a custom differentiable
	// loss (e.g. a PinballLoss closure for quantile regression).
	LossFunc func(pred, target *tensor.Matrix) (float64, *tensor.Matrix)
}

// divergencePatience is the number of divergent events (a non-finite batch
// loss or gradient) FitCtx tolerates before it gives up. Each event rolls
// the network back to the best checkpointed weights and halves the
// learning rate; exhausting the budget returns a *DivergenceError with the
// rollback already applied.
const divergencePatience = 3

// evalLossWS dispatches between a custom LossFunc, which keeps its own
// allocating contract (it returns a fresh gradient we cannot reuse), and
// the named loss, which LossInto writes into the workspace's buffer.
func (c *TrainConfig) evalLossWS(ws *TrainWorkspace, pred, target *tensor.Matrix) (float64, *tensor.Matrix) {
	if c.LossFunc != nil {
		return c.LossFunc(pred, target)
	}
	return LossInto(c.Loss, pred, target, &ws.grad), &ws.grad
}

// EpochStats is the per-epoch telemetry handed to OnEpochStats.
type EpochStats struct {
	Epoch     int
	TrainLoss float64
	// GradNorm is the global gradient L2 norm of the epoch's last
	// successful batch step.
	GradNorm float64
	// LR is the optimizer learning rate in effect during the epoch.
	LR float64
}

// TrainResult summarizes a training run.
type TrainResult struct {
	Epochs    int
	FinalLoss float64
	// Diverged is true when training was abandoned after exhausting
	// divergencePatience; the network holds the best checkpointed weights.
	Diverged bool
	// Rollbacks counts checkpoint restores triggered by divergent events.
	Rollbacks int
}

// DivergenceError reports a training run abandoned after repeated
// non-finite losses or gradients. The trainer has already rolled the
// network back to the best checkpointed weights, so the model remains
// usable (it just stopped improving).
type DivergenceError struct {
	// Epoch is the 0-based epoch during which training gave up.
	Epoch int
	// Events is the number of divergent events observed.
	Events int
	// LastLoss is the last finite loss seen before giving up (NaN when
	// training never produced one).
	LastLoss float64
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("nn: training diverged at epoch %d after %d non-finite events (last finite loss %g); rolled back to best checkpoint",
		e.Epoch, e.Events, e.LastLoss)
}

// Trainer trains a network with an optimizer under a TrainConfig.
type Trainer struct {
	Net *Network
	Opt Optimizer
	Cfg TrainConfig
}

// Fit runs mini-batch gradient descent on (x, y). Rows of x are samples;
// y has one row per sample. Gradients for each batch are computed by
// Cfg.Workers replicas over shards of the batch and summed in worker order,
// so a run is reproducible for a fixed worker count. Divergence (see
// divergencePatience) is handled by rollback but not reported; use FitCtx
// to observe it.
func (t *Trainer) Fit(x, y *tensor.Matrix) TrainResult {
	res, _ := t.FitCtx(context.Background(), x, y)
	return res
}

// FitCtx is Fit with cooperative cancellation and divergence reporting.
// It stops between batches when ctx is cancelled, returning the partial
// result alongside ctx.Err(). When the run exhausts its divergence budget
// it returns the best-checkpoint-restored result and a *DivergenceError.
func (t *Trainer) FitCtx(ctx context.Context, x, y *tensor.Matrix) (TrainResult, error) {
	if x.Rows != y.Rows {
		panic(fmt.Sprintf("nn: Fit got %d samples but %d targets", x.Rows, y.Rows))
	}
	if x.Rows == 0 {
		return TrainResult{}, nil
	}
	cfg := t.Cfg
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 4 {
			workers = 4
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nTrain := x.Rows

	// Data-parallel replicas share the master's architecture.
	replicas := make([]*Network, workers)
	replicas[0] = t.Net
	for w := 1; w < workers; w++ {
		replicas[w] = t.Net.CloneFor(rand.New(rand.NewSource(cfg.Seed + int64(w))))
	}
	st := newTrainState(replicas)

	order := make([]int, nTrain)
	for i := range order {
		order[i] = i
	}

	// Divergence handling: keep a checkpoint of the best weights seen so
	// far and roll back to it whenever a non-finite loss or gradient
	// appears, halving the learning rate to attempt recovery. The budget
	// of such events is divergencePatience.
	ckpt := t.Net.CloneFor(rand.New(rand.NewSource(cfg.Seed + 7919)))
	ckpt.CopyWeightsFrom(t.Net)
	ckptScore := math.Inf(1)
	lastFinite := math.NaN()
	res := TrainResult{}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochLR := t.Opt.LR()
		rng.Shuffle(nTrain, func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		var nBatches int
		for start := 0; start < nTrain; start += cfg.BatchSize {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			end := start + cfg.BatchSize
			if end > nTrain {
				end = nTrain
			}
			batch := order[start:end]
			l, ok := t.batchStep(st, x, y, batch, workers)
			if !ok {
				t.Net.CopyWeightsFrom(ckpt)
				t.Opt.SetLR(t.Opt.LR() / 2)
				res.Rollbacks++
				if cfg.OnRollback != nil {
					cfg.OnRollback(epoch, res.Rollbacks, t.Opt.LR())
				}
				if res.Rollbacks >= divergencePatience {
					res.Diverged = true
					res.Epochs = epoch + 1
					return res, &DivergenceError{Epoch: epoch, Events: res.Rollbacks, LastLoss: lastFinite}
				}
				continue
			}
			lastFinite = l
			epochLoss += l
			nBatches++
		}
		if nBatches == 0 {
			// Every batch this epoch was rolled back; there is no loss to
			// report and nothing new to checkpoint.
			epochLoss = math.NaN()
		} else {
			epochLoss /= float64(nBatches)
		}
		res.Epochs = epoch + 1
		res.FinalLoss = epochLoss

		// Checkpoint on improvement of the training loss.
		if !math.IsNaN(epochLoss) && !math.IsInf(epochLoss, 0) && epochLoss < ckptScore {
			ckptScore = epochLoss
			ckpt.CopyWeightsFrom(t.Net)
		}
		if cfg.OnEpochStats != nil {
			cfg.OnEpochStats(EpochStats{Epoch: epoch, TrainLoss: epochLoss, GradNorm: st.lastGradNorm, LR: epochLR})
		}
	}
	return res, nil
}

// trainState is the per-Fit scratch shared by every batch step: the replica
// networks, one training workspace per replica, cached Params slices (the
// Param structs point at stable matrices, so building them once per Fit
// removes three slice allocations per batch), and the shard bookkeeping for
// the data-parallel path. Together with the workspaces this makes a warm
// serial batch step allocation-free.
type trainState struct {
	replicas []*Network
	wss      []*TrainWorkspace
	params   [][]Param // params[w] belongs to replicas[w]; [0] is the master
	losses   []float64
	sizes    []int
	// lastGradNorm is the global gradient L2 norm of the most recent
	// successful batch step; only maintained when the config's
	// OnEpochStats hook is set.
	lastGradNorm float64
}

func newTrainState(replicas []*Network) *trainState {
	st := &trainState{
		replicas: replicas,
		wss:      make([]*TrainWorkspace, len(replicas)),
		params:   make([][]Param, len(replicas)),
		losses:   make([]float64, len(replicas)),
		sizes:    make([]int, len(replicas)),
	}
	for w, r := range replicas {
		st.wss[w] = r.NewTrainWorkspace()
		st.params[w] = r.Params()
	}
	return st
}

// batchStep computes the batch gradient (possibly sharded across replicas),
// applies one optimizer step to the master network, and returns the batch
// loss. A non-finite loss or gradient skips the optimizer step, zeroes the
// accumulated gradients, and returns ok=false so the caller can roll back. All intermediate tensors live in st's workspaces.
func (t *Trainer) batchStep(st *trainState, x, y *tensor.Matrix, batch []int, workers int) (float64, bool) {
	master := st.params[0]
	if workers <= 1 || len(batch) < 2*workers {
		ws := st.wss[0]
		xb := x.SelectRowsInto(batch, &ws.xb)
		yb := y.SelectRowsInto(batch, &ws.yb)
		pred := t.Net.ForwardTrain(ws, xb)
		l, grad := t.Cfg.evalLossWS(ws, pred, yb)
		if math.IsNaN(l) || math.IsInf(l, 0) {
			zeroGrads(master)
			return l, false
		}
		t.Net.BackwardTrain(ws, grad)
		if !gradsFinite(master) {
			zeroGrads(master)
			return l, false
		}
		if t.Cfg.OnEpochStats != nil {
			st.lastGradNorm = gradNorm(master)
		}
		t.Opt.Step(master)
		return l, true
	}

	// Shard the batch; each replica computes gradients on its shard with
	// the loss gradient scaled to the shard size, then shard gradients are
	// combined weighted by shard fraction so the result equals the
	// full-batch gradient. Each replica owns its workspace, so shards reuse
	// their SelectRows gather buffers and activation tensors across batches.
	for w := 1; w < workers; w++ {
		st.replicas[w].CopyWeightsFrom(t.Net)
		st.sizes[w] = 0
	}
	st.sizes[0] = 0
	chunk := (len(batch) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(batch) {
			hi = len(batch)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w int, shard []int) {
			defer wg.Done()
			ws := st.wss[w]
			xb := x.SelectRowsInto(shard, &ws.xb)
			yb := y.SelectRowsInto(shard, &ws.yb)
			net := st.replicas[w]
			pred := net.ForwardTrain(ws, xb)
			l, grad := t.Cfg.evalLossWS(ws, pred, yb)
			net.BackwardTrain(ws, grad)
			st.losses[w] = l
			st.sizes[w] = len(shard)
		}(w, batch[lo:hi])
	}
	wg.Wait()

	// Combine: master (replica 0) already holds its own shard's gradient;
	// scale it and add the others, all weighted by shard fraction.
	total := float64(len(batch))
	for i := range master {
		w0 := float64(st.sizes[0]) / total
		for k := range master[i].Grad.Data {
			master[i].Grad.Data[k] *= w0
		}
	}
	for w := 1; w < workers; w++ {
		if st.sizes[w] == 0 {
			continue
		}
		frac := float64(st.sizes[w]) / total
		rp := st.params[w]
		for i := range master {
			for k, g := range rp[i].Grad.Data {
				master[i].Grad.Data[k] += frac * g
			}
			rp[i].Grad.Zero()
		}
	}
	var l float64
	for w := 0; w < workers; w++ {
		l += st.losses[w] * float64(st.sizes[w]) / total
	}
	if math.IsNaN(l) || math.IsInf(l, 0) || !gradsFinite(master) {
		zeroGrads(master)
		return l, false
	}
	if t.Cfg.OnEpochStats != nil {
		st.lastGradNorm = gradNorm(master)
	}
	t.Opt.Step(master)
	return l, true
}

// gradsFinite reports whether every accumulated gradient is finite.
func gradsFinite(params []Param) bool {
	for _, p := range params {
		for _, g := range p.Grad.Data {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				return false
			}
		}
	}
	return true
}

// zeroGrads clears accumulated gradients after a skipped step, so a
// poisoned batch cannot leak into the next optimizer update.
func zeroGrads(params []Param) {
	for _, p := range params {
		p.Grad.Zero()
	}
}

// gradNorm returns the global L2 norm of the accumulated gradients.
func gradNorm(params []Param) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += g * g
		}
	}
	return math.Sqrt(sq)
}
