package features

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/baselines"
	"repro/internal/slurmsim"
	"repro/internal/trace"
)

// RuntimePredictor is the random-forest job-runtime model (§II/§III: a
// separate model whose output is fed to the queue-time predictor as the
// Pred Runtime features). It uses only request-time inputs, so it can score
// a job the moment it is submitted.
//
// A job's predicted runtime is a pure function of the nine inputs and the
// forest, so PredictSeconds remembers its answers in a bounded table owned
// by the predictor: SnapshotRow asks about every queued and running job of
// a partition on every request, and those jobs barely change between
// requests. The table dies with the predictor, so a swapped-in, rolled-back
// or shadow bundle can never read another forest's values. The zero value
// with a Forest is ready to use; a RuntimePredictor must not be copied
// after first use.
type RuntimePredictor struct {
	Forest *baselines.Forest

	evals atomic.Uint64
	memo  [memoSets][memoWays]atomic.Pointer[memoEntry]
}

// The memo holds memoSets*memoWays = 8,192 answers: about four times the
// queued and running jobs of the deepest state the benchmark loads (2,020;
// the paper's "thousands pending at peak"), at 80 bytes each plus the
// 64 KB pointer table — under 1 MB a predictor. It is a constant because
// no two deployments of this code need different values: a live queue that
// outgrows it degrades to evaluating the forest (Evals shows it), never to
// a wrong answer. Sets are eight ways wide because narrow ones overflow
// long before the table fills: at 2,020 keys about seven of them land in
// four-way sets that are already full and are evaluated again on every
// request, against one state in five having a single such key here.
const (
	memoSetBits = 10
	memoSets    = 1 << memoSetBits
	memoWays    = 8
)

// memoEntry is one remembered answer. Entries are never modified after
// they are published, so readers need no lock.
type memoEntry struct {
	in      runtimeInputs
	seconds float64
}

const numRuntimeInputs = 9

// runtimeInputs are the runtime forest's nine inputs, raw (before log1p)
// and in forest column order: time limit, CPUs, memory, nodes, GPUs, QOS
// and priority requested, and the partition's total CPUs and GPUs — no
// queue state, so they are known the moment a job is submitted. The value
// is both the memo key and the only source of the forest's input row, so
// a tenth input cannot reach the forest without entering the key. Integers
// are held sign-extended and ReqMemGB as its bit pattern, so every NaN
// equals itself and -0 stays distinct from +0.
type runtimeInputs [numRuntimeInputs]uint64

func runtimeInputsOf(j *trace.Job, tot slurmsim.PartitionTotals) runtimeInputs {
	return runtimeInputs{
		uint64(j.TimeLimit),
		uint64(j.ReqCPUs),
		math.Float64bits(j.ReqMemGB),
		uint64(j.ReqNodes),
		uint64(j.ReqGPUs),
		uint64(j.QOS),
		uint64(j.Priority),
		uint64(tot.CPUs),
		uint64(tot.GPUs),
	}
}

// row is the forest's input row for these inputs.
func (in *runtimeInputs) row() [numRuntimeInputs]float64 {
	return [numRuntimeInputs]float64{
		math.Log1p(float64(int64(in[0]))),
		math.Log1p(float64(int64(in[1]))),
		math.Log1p(math.Float64frombits(in[2])),
		float64(int64(in[3])),
		float64(int64(in[4])),
		float64(int64(in[5])),
		float64(int64(in[6])),
		float64(int64(in[7])),
		float64(int64(in[8])),
	}
}

// set picks the memo set for these inputs by multiply-shift hashing: the
// nine words times nine fixed odd multipliers, summed (independent
// multiplies, so the hash does not wait on a nine-deep chain), folded once
// because job specs are small integers, and the top bits taken.
func (in *runtimeInputs) set() uint64 {
	var h uint64
	for i, w := range in {
		h += w * memoMul[i]
	}
	h ^= h >> 32
	h *= 0xff51afd7ed558ccd
	return h >> (64 - memoSetBits)
}

var memoMul = [numRuntimeInputs]uint64{
	0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb,
	0xc2b2ae3d27d4eb4f, 0x9e3779b185ebca87, 0x165667b19e3779f9,
	0x85ebca77c2b2ae63, 0x27d4eb2f165667c5, 0xc4ceb9fe1a85ec53,
}

// evaluate runs the forest: the uncached body of PredictSeconds.
func (r *RuntimePredictor) evaluate(in *runtimeInputs) float64 {
	row := in.row()
	v := math.Expm1(r.Forest.Predict(row[:]))
	if v < 0 {
		return 0
	}
	return v
}

// TrainRuntimePredictor fits the forest on the given (time-ordered) jobs.
// Targets are log-seconds of actual runtime; trees train on
// histogram-binned features.
func TrainRuntimePredictor(jobs []trace.Job, totals map[string]slurmsim.PartitionTotals, trees int, seed int64) (*RuntimePredictor, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("features: no jobs to train runtime predictor")
	}
	if trees <= 0 {
		trees = 50
	}
	rows := make([][numRuntimeInputs]float64, len(jobs))
	X := make([][]float64, len(jobs))
	y := make([]float64, len(jobs))
	for i := range jobs {
		in := runtimeInputsOf(&jobs[i], totals[jobs[i].Partition])
		rows[i] = in.row()
		X[i] = rows[i][:]
		y[i] = math.Log1p(float64(jobs[i].RuntimeSeconds()))
	}
	forest := baselines.NewForest(baselines.ForestConfig{
		Trees: trees,
		Tree:  baselines.TreeConfig{MaxDepth: 10, MinLeaf: 10},
		Seed:  seed,
	})
	if err := forest.Fit(X, y); err != nil {
		return nil, fmt.Errorf("features: runtime predictor: %w", err)
	}
	return &RuntimePredictor{Forest: forest}, nil
}

// PredictSeconds estimates a job's runtime in seconds from request-time
// fields only. Safe for concurrent use; a remembered answer is the bits the
// forest returned for the same inputs.
func (r *RuntimePredictor) PredictSeconds(j *trace.Job, tot slurmsim.PartitionTotals) float64 {
	in := runtimeInputsOf(j, tot)
	set := &r.memo[in.set()]
	for w := range set {
		if e := set[w].Load(); e != nil && e.in == in {
			return e.seconds
		}
	}
	// Miss. Two goroutines missing on the same inputs both evaluate and
	// both publish the same bits; the second overwrites the first's way.
	e := &memoEntry{in: in, seconds: r.evaluate(&in)}
	victim := int(r.evals.Add(1) % memoWays)
	for w := range set {
		if old := set[w].Load(); old == nil || old.in == in {
			victim = w
			break
		}
	}
	set[victim].Store(e)
	return e.seconds
}

// Evals counts forest evaluations PredictSeconds has made, that is, its
// memo misses. Against the number of predictions served it reads near zero
// when the memo holds the live queue and near the queue depth when the
// queue has outgrown it. A nil predictor (which SnapshotRow refuses) has
// made none.
func (r *RuntimePredictor) Evals() uint64 {
	if r == nil {
		return 0
	}
	return r.evals.Load()
}

// Bytes serializes the predictor.
func (r *RuntimePredictor) Bytes() ([]byte, error) {
	fb, err := r.Forest.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fb); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RuntimePredictorFromBytes deserializes a predictor written by Bytes.
func RuntimePredictorFromBytes(b []byte) (*RuntimePredictor, error) {
	var fb []byte
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&fb); err != nil {
		return nil, fmt.Errorf("features: runtime predictor: %w", err)
	}
	forest := &baselines.Forest{}
	if err := forest.UnmarshalBinary(fb); err != nil {
		return nil, fmt.Errorf("features: runtime predictor: %w", err)
	}
	return &RuntimePredictor{Forest: forest}, nil
}
