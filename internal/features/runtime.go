package features

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"sync"
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
// by the predictor, and SnapshotRow, which needs the answer for every
// queued and running job of a partition, reads them from a queue column
// built once per queue (queueColumns) rather than probing that table per
// job per row; the column also keeps its sums, the ahead block once per
// rank. All of it dies with the predictor, so a swapped-in, rolled-back or
// candidate bundle can never read another forest's values. The
// zero value with a Forest is ready to use; a RuntimePredictor must not be
// copied after first use.
type RuntimePredictor struct {
	Forest *baselines.Forest

	evals atomic.Uint64
	memo  [memoSets][memoWays]atomic.Pointer[memoEntry]
	cols  queueColumns
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
// memo misses. It reads near zero when the memo holds the live queue; once
// the queue has outgrown it, it grows by about the queue depth per queue
// SnapshotRow sees (one column build), not per row. A nil predictor (which
// SnapshotRow refuses) has made none.
func (r *RuntimePredictor) Evals() uint64 {
	if r == nil {
		return 0
	}
	return r.evals.Load()
}

// queueSlots bounds the queue-column table to as many live queues as the
// engine's queue memo holds (livestate's memoSlots): every request served
// from one memoized queue shares its slot, and a queue that is no longer
// asked about is the oldest-used slot and goes first.
const queueSlots = 8

// queueKey names a snapshot's queue by identity: the first element and
// length of its Pending and Running backing arrays. The pointers are
// strong, so an array a slot is keyed by cannot be freed and its address
// reused while the slot lives; re-slicing or appending changes the key.
// Identity stands in for content only because a snapshot's queue is never
// modified in place (see Snapshot).
type queueKey struct {
	pending, running *trace.Job
	np, nr           int
}

func queueKeyOf(s *Snapshot) queueKey {
	return queueKey{firstJob(s.Pending), firstJob(s.Running), len(s.Pending), len(s.Running)}
}

func firstJob(jobs []trace.Job) *trace.Job {
	if len(jobs) == 0 {
		return nil
	}
	return &jobs[0]
}

// queueColumns is the predictor's table of queue columns: for each of the
// last queueSlots queues SnapshotRow was asked about, each asked-about
// partition's pending and running jobs reduced to what a row sums.
type queueColumns struct {
	mu     sync.Mutex
	clock  uint64
	slots  [queueSlots]*queueSlot
	builds atomic.Uint64 // columns built; a row on a known queue builds none
	walks  atomic.Uint64 // blocks summed by walking a column; a memoized rank walks none
}

// queueSlot holds one queue's partition columns.
type queueSlot struct {
	key  queueKey
	used uint64 // LRU stamp, written under queueColumns.mu

	mu    sync.Mutex // held while a column is built, so each is built once
	parts []*queueColumn
}

// queueColumn is one partition of one queue as a row sums it, in the
// queue's slice order. Besides the partition, it depends on the partition
// totals only through the two the runtime forest reads. Everything but the
// ahead memo is immutable once published.
type queueColumn struct {
	partition        string
	cpus, gpus       int
	pending, running []queuedJob
	// all is the queue and running block of a target whose ID is in
	// neither list: every job summed, in slice order. Its ahead block is
	// zero; ahead holds those.
	all queueAgg

	mu sync.Mutex
	// ahead memoizes the ahead block by rank: the number of pending jobs
	// that outrank the target. It has at most len(pending)+1 entries.
	ahead map[int]jobSums
}

// block is target j's queue-state block on c. The jobs ahead of j are the
// pending ones of greater priority. Those sets are nested as the priority
// rises, so the rank, their count, names the set exactly, and summed in
// slice order it has the same bits for every target of that rank. A target
// with an ID in either list must leave itself out, so it walks the column;
// walks counts the blocks summed by a walk.
func (c *queueColumn) block(j *trace.Job, walks *atomic.Uint64) queueAgg {
	rank, in := 0, false
	for i := range c.pending {
		q := &c.pending[i]
		if q.priority > j.Priority {
			rank++
		}
		in = in || q.id == j.ID
	}
	for i := range c.running {
		in = in || c.running[i].id == j.ID
	}
	if in {
		walks.Add(1)
		var agg queueAgg
		for i := range c.pending {
			if q := &c.pending[i]; q.id != j.ID {
				agg.addQueued(j, q)
			}
		}
		for i := range c.running {
			if q := &c.running[i]; q.id != j.ID {
				agg.addRunning(q)
			}
		}
		return agg
	}

	agg := c.all
	c.mu.Lock()
	ahead, ok := c.ahead[rank]
	c.mu.Unlock()
	if !ok {
		// Two rows missing on one rank both walk and store the same bits.
		walks.Add(1)
		for i := range c.pending {
			if q := &c.pending[i]; q.priority > j.Priority {
				ahead.add(q)
			}
		}
		c.mu.Lock()
		if c.ahead == nil {
			c.ahead = make(map[int]jobSums)
		}
		c.ahead[rank] = ahead
		c.mu.Unlock()
	}
	agg.ahead = ahead
	return agg
}

// slot returns the slot of queue k, claiming the oldest-used one if k has
// none.
func (t *queueColumns) slot(k queueKey) *queueSlot {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock++
	victim := 0
	for i, s := range t.slots {
		if s == nil {
			victim = i
			continue
		}
		if s.key == k {
			s.used = t.clock
			return s
		}
		if t.slots[victim] != nil && s.used < t.slots[victim].used {
			victim = i
		}
	}
	s := &queueSlot{key: k, used: t.clock}
	t.slots[victim] = s
	return s
}

// column returns partition's column of snap's queue, building it on
// first use: PredictSeconds is asked about each of the partition's queued
// and running jobs, and they are summed, once per queue, not once per row.
func (r *RuntimePredictor) column(snap *Snapshot, partition string, tot slurmsim.PartitionTotals) *queueColumn {
	s := r.cols.slot(queueKeyOf(snap))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.parts {
		if c.partition == partition && c.cpus == tot.CPUs && c.gpus == tot.GPUs {
			return c
		}
	}
	c := &queueColumn{
		partition: partition, cpus: tot.CPUs, gpus: tot.GPUs,
		pending: r.queuedJobs(snap.Pending, partition, tot),
		running: r.queuedJobs(snap.Running, partition, tot),
	}
	for i := range c.pending {
		c.all.queued.add(&c.pending[i])
		c.all.queuedPred += c.pending[i].pred
	}
	for i := range c.running {
		c.all.addRunning(&c.running[i])
	}
	s.parts = append(s.parts, c)
	r.cols.builds.Add(1)
	return c
}

// queuedJobs reduces the jobs of one partition, in slice order. They are
// counted first so that a queue-memo miss, which builds a column for a single
// row, allocates it once at its size.
func (r *RuntimePredictor) queuedJobs(jobs []trace.Job, partition string, tot slurmsim.PartitionTotals) []queuedJob {
	n := 0
	for i := range jobs {
		if jobs[i].Partition == partition {
			n++
		}
	}
	out := make([]queuedJob, 0, n)
	for i := range jobs {
		if o := &jobs[i]; o.Partition == partition {
			out = append(out, queuedJobOf(o, r.PredictSeconds(o, tot)))
		}
	}
	return out
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
