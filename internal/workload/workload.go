// Package workload synthesizes an Anvil-like job stream for the cluster
// simulator. It substitutes for the paper's proprietary Slurm accounting
// data and is shaped to its published statistics (Table I and §III/§V):
//
//   - a Zipf-distributed user population (median user submits tens of jobs,
//     the heaviest submits hundreds of thousands);
//   - ~69 % of jobs target the `shared` partition, the rest spread over six
//     others;
//   - heavy wall-time over-estimation (mean usage ≈ 15 %, power users < 5 %);
//   - bursty back-to-back submissions of near-identical jobs by the same
//     user — the correlation that makes shuffled train/test splits leak;
//   - a mix of short and multi-day requested time limits whose mean lands
//     near the paper's 12.5 h.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/slurmsim"
)

// Config controls workload synthesis.
type Config struct {
	Seed     int64
	NumJobs  int
	NumUsers int
	// Start is the epoch (Unix seconds) of the first submission.
	Start int64
	// MeanInterarrival is the mean seconds between submission events
	// (a burst counts as one event).
	MeanInterarrival float64
	// BurstProb is the probability a submission event is a burst;
	// burst lengths are geometric with mean BurstMean.
	BurstProb float64
	BurstMean float64
	// PartitionMix maps partition name to selection probability. Values
	// are normalized; the default mirrors the paper (shared ≈ 0.69).
	PartitionMix map[string]float64
	// MeanWalltimeUsage is the population mean of runtime/timelimit.
	MeanWalltimeUsage float64
	// EligibleDelayProb is the chance a job has a deferred begin time.
	EligibleDelayProb float64
	// TargetUtilization rescales submission times after generation so the
	// offered load (Σ cpus×runtime / span) lands at this fraction of the
	// cluster's CPU capacity, making the queue-time skew stable across
	// seeds. 0 disables normalization.
	TargetUtilization float64
	// ChainProb is the probability a burst becomes a dependency chain
	// (each member waits for the previous one — Slurm afterany), another
	// source of eligible ≠ submit gaps.
	ChainProb float64
}

// DefaultConfig returns a configuration shaped like the paper's dataset for
// a scale-1 AnvilLike cluster.
func DefaultConfig(numJobs int, seed int64) Config {
	return Config{
		Seed:             seed,
		NumJobs:          numJobs,
		NumUsers:         maxInt(40, numJobs/150),
		Start:            1_700_000_000,
		MeanInterarrival: 1100,
		BurstProb:        0.25,
		BurstMean:        8,
		PartitionMix: map[string]float64{
			"shared":    0.6895, // paper: 68.95 % of jobs
			"wholenode": 0.10,
			"wide":      0.02,
			"highmem":   0.04,
			"gpu":       0.07,
			"debug":     0.05,
			"standby":   0.0305,
		},
		MeanWalltimeUsage: 0.15,
		EligibleDelayProb: 0.03,
		TargetUtilization: 0.60,
		ChainProb:         0.05,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// user is a synthetic user profile. Back-to-back bursts reuse the template
// so consecutive jobs look nearly identical, as the paper observed.
type user struct {
	id        int
	weight    float64 // Zipf activity weight
	partition string
	cpusLog   float64 // log-normal location of CPU request
	usageMean float64 // mean runtime/timelimit for this user
	nodesBias int     // extra nodes for wholenode/wide users
	qos       int
	cumWeight float64
}

// timeLimitChoices are requested wall times (seconds) with weights shaped so
// the mean lands near the paper's 12.55 h and the median near 4 h.
var timeLimitChoices = []struct {
	seconds int64
	weight  float64
}{
	{30 * 60, 0.13},
	{2 * 3600, 0.17},
	{4 * 3600, 0.25},
	{8 * 3600, 0.15},
	{12 * 3600, 0.10},
	{24 * 3600, 0.10},
	{48 * 3600, 0.06},
	{96 * 3600, 0.04},
}

// Generate synthesizes job specs for the given cluster. Jobs are returned
// in submission order with sequential IDs starting at 1.
func Generate(cfg Config, cluster *slurmsim.ClusterSpec) ([]slurmsim.JobSpec, error) {
	if cfg.NumJobs <= 0 {
		return nil, fmt.Errorf("workload: NumJobs must be positive")
	}
	if cfg.NumUsers <= 0 {
		return nil, fmt.Errorf("workload: NumUsers must be positive")
	}
	if cfg.MeanInterarrival <= 0 {
		return nil, fmt.Errorf("workload: MeanInterarrival must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	partNames, partCum, err := normalizeMix(cfg.PartitionMix, cluster)
	if err != nil {
		return nil, err
	}

	users := makeUsers(cfg, rng, partNames, partCum)

	specs := make([]slurmsim.JobSpec, 0, cfg.NumJobs)
	clock := float64(cfg.Start)
	id := 1
	for len(specs) < cfg.NumJobs {
		clock += rng.ExpFloat64() * cfg.MeanInterarrival
		u := pickUser(users, rng)
		n := 1
		if rng.Float64() < cfg.BurstProb {
			n = 1 + int(rng.ExpFloat64()*cfg.BurstMean)
			if n > 400 {
				n = 400
			}
		}
		tmpl := u.template(rng, cluster)
		chain := n > 1 && rng.Float64() < cfg.ChainProb
		burstClock := clock
		prevID := 0
		for k := 0; k < n && len(specs) < cfg.NumJobs; k++ {
			sp := tmpl
			sp.ID = id
			id++
			if chain && prevID != 0 {
				sp.DependsOn = prevID
			}
			prevID = sp.ID
			sp.Submit = int64(burstClock)
			burstClock += 1 + rng.ExpFloat64()*4 // seconds between burst members
			// Small per-job jitter on runtime keeps burst members
			// similar but not identical.
			jitter := 0.8 + rng.Float64()*0.4
			sp.Runtime = int64(float64(sp.Runtime) * jitter)
			if sp.Runtime < 1 {
				sp.Runtime = 1
			}
			if sp.Runtime > sp.TimeLimit {
				sp.Runtime = sp.TimeLimit
			}
			if rng.Float64() < cfg.EligibleDelayProb {
				sp.EligibleDelay = int64(rng.ExpFloat64() * 1800)
			}
			specs = append(specs, sp)
		}
		// Later events must not predate burst members already emitted.
		if burstClock > clock {
			clock = burstClock
		}
	}
	if cfg.TargetUtilization > 0 {
		normalizeLoad(specs, cluster, cfg)
	}
	return specs, nil
}

// normalizeLoad rescales submit times around the trace start so the offered
// CPU load is TargetUtilization of capacity. The heavy-user lottery
// otherwise makes per-seed load vary several-fold, which would swing the
// queue-time distribution far from the paper's 87 %-under-10-minutes shape.
func normalizeLoad(specs []slurmsim.JobSpec, cluster *slurmsim.ClusterSpec, cfg Config) {
	if len(specs) < 2 {
		return
	}
	// Partitions sharing nodes form one pool; the binding constraint is
	// the most-loaded pool (a 2-node GPU partition saturates long before
	// the CPU pool does).
	poolOf := poolAssignment(cluster)
	type capacity struct{ cpus, mem, gpus float64 }
	poolCap := map[int]*capacity{}
	for id, n := range cluster.Nodes {
		c := poolCap[poolOf[id]]
		if c == nil {
			c = &capacity{}
			poolCap[poolOf[id]] = c
		}
		c.cpus += float64(n.CPUs)
		c.mem += n.MemGB
		c.gpus += float64(n.GPUs)
	}
	partPool := map[string]int{}
	for _, p := range cluster.Partitions {
		partPool[p.Name] = poolOf[p.NodeIDs[0]]
	}
	poolDemand := map[int]*capacity{}
	for i := range specs {
		d := poolDemand[partPool[specs[i].Partition]]
		if d == nil {
			d = &capacity{}
			poolDemand[partPool[specs[i].Partition]] = d
		}
		rt := float64(specs[i].Runtime)
		d.cpus += float64(specs[i].ReqCPUs) * rt
		d.mem += specs[i].ReqMemGB * rt
		d.gpus += float64(specs[i].ReqGPUs) * rt
	}
	span := float64(specs[len(specs)-1].Submit - specs[0].Submit)
	if span <= 0 {
		return
	}
	// The binding constraint is the most-loaded resource of the
	// most-loaded pool (the GPU pool runs out of GPUs long before CPUs).
	load := 0.0
	for pool, d := range poolDemand {
		c := poolCap[pool]
		for _, r := range [][2]float64{{d.cpus, c.cpus}, {d.mem, c.mem}, {d.gpus, c.gpus}} {
			if r[1] > 0 && r[0]/span/r[1] > load {
				load = r[0] / span / r[1]
			}
		}
	}
	if load <= 0 {
		return
	}
	alpha := load / cfg.TargetUtilization
	start := specs[0].Submit
	for i := range specs {
		specs[i].Submit = start + int64(float64(specs[i].Submit-start)*alpha)
	}
	// Rescaling can collapse burst members onto the same second; keep
	// submission order strictly monotone within ties for determinism.
	for i := 1; i < len(specs); i++ {
		if specs[i].Submit < specs[i-1].Submit {
			specs[i].Submit = specs[i-1].Submit
		}
	}
}

// rebalanceMix returns the cumulative tail-user partition distribution such
// that pinning a `heavyShare` fraction of activity to `dominant` still
// yields the configured overall mix: tail probability of the dominant
// partition is reduced by the pinned mass, the rest renormalized.
func rebalanceMix(mix map[string]float64, partNames []string, dominant string, heavyShare float64) []float64 {
	var total float64
	for _, n := range partNames {
		total += mix[n]
	}
	adj := make([]float64, len(partNames))
	var adjTotal float64
	for i, n := range partNames {
		p := mix[n] / total
		if n == dominant {
			p = (p - heavyShare) / (1 - heavyShare)
			if p < 0 {
				p = 0
			}
		} else {
			p = p / (1 - heavyShare)
		}
		adj[i] = p
		adjTotal += p
	}
	cum := make([]float64, len(adj))
	acc := 0.0
	for i, p := range adj {
		acc += p / adjTotal
		cum[i] = acc
	}
	return cum
}

// poolAssignment groups nodes into pools via union-find over partitions
// (nodes in the same partition share a pool).
func poolAssignment(cluster *slurmsim.ClusterSpec) []int {
	parent := make([]int, len(cluster.Nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, p := range cluster.Partitions {
		root := find(p.NodeIDs[0])
		for _, id := range p.NodeIDs[1:] {
			parent[find(id)] = root
		}
	}
	out := make([]int, len(parent))
	for i := range parent {
		out[i] = find(i)
	}
	return out
}

// normalizeMix validates the partition mix against the cluster and returns
// cumulative probabilities in a deterministic order.
func normalizeMix(mix map[string]float64, cluster *slurmsim.ClusterSpec) ([]string, []float64, error) {
	if len(mix) == 0 {
		return nil, nil, fmt.Errorf("workload: empty partition mix")
	}
	names := make([]string, 0, len(mix))
	for name := range mix {
		if cluster.Partition(name) == nil {
			return nil, nil, fmt.Errorf("workload: mix references unknown partition %q", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var total float64
	for _, n := range names {
		if mix[n] < 0 {
			return nil, nil, fmt.Errorf("workload: negative weight for %q", n)
		}
		total += mix[n]
	}
	if total <= 0 {
		return nil, nil, fmt.Errorf("workload: partition mix sums to zero")
	}
	cum := make([]float64, len(names))
	acc := 0.0
	for i, n := range names {
		acc += mix[n] / total
		cum[i] = acc
	}
	return names, cum, nil
}

// makeUsers builds the user population with Zipf activity weights.
func makeUsers(cfg Config, rng *rand.Rand, partNames []string, partCum []float64) []user {
	users := make([]user, cfg.NumUsers)
	var cum float64
	// The heaviest users are pinned to the dominant partition: a single
	// Zipf-head user landing on a 2-node partition would otherwise swamp
	// it regardless of aggregate load. The tail users' mix is rebalanced
	// so the overall partition shares still match cfg.PartitionMix.
	heavy := cfg.NumUsers / 10
	if heavy < 2 {
		heavy = 2
	}
	dominant := partNames[0]
	bestW := -1.0
	for _, n := range partNames {
		if cfg.PartitionMix[n] > bestW {
			bestW = cfg.PartitionMix[n]
			dominant = n
		}
	}
	// Weight share held by the pinned users.
	var heavyW, totalW float64
	for i := 0; i < cfg.NumUsers; i++ {
		w := 1.0 / math.Pow(float64(i+1), 1.05)
		totalW += w
		if i < heavy {
			heavyW += w
		}
	}
	partCum = rebalanceMix(cfg.PartitionMix, partNames, dominant, heavyW/totalW)
	for i := range users {
		// Zipf-ish activity: weight ∝ 1/rank^1.05 (the paper's heaviest
		// user holds ~13 % of all jobs; steeper exponents make the trace
		// shape hostage to a single user's profile).
		w := 1.0 / math.Pow(float64(i+1), 1.05)
		// Partition preference: drawn once per user so each user's jobs
		// concentrate in one partition.
		r := rng.Float64()
		part := partNames[len(partNames)-1]
		for k, c := range partCum {
			if r < c {
				part = partNames[k]
				break
			}
		}
		if i < heavy {
			part = dominant
		}
		// Per-user mean wall-time usage: Beta-like around the population
		// mean, with a heavy tail of extreme over-requesters (<5 %).
		usage := cfg.MeanWalltimeUsage * (0.3 + rng.ExpFloat64())
		if usage > 0.95 {
			usage = 0.95
		}
		if usage < 0.01 {
			usage = 0.01
		}
		users[i] = user{
			id:        i + 1,
			weight:    w,
			partition: part,
			cpusLog:   math.Log(4) + rng.NormFloat64()*0.9,
			usageMean: usage,
			nodesBias: rng.Intn(3),
			qos:       rng.Intn(3),
		}
		cum += w
		users[i].cumWeight = cum
	}
	return users
}

// pickUser samples a user by Zipf weight via binary search on the
// cumulative weights.
func pickUser(users []user, rng *rand.Rand) *user {
	total := users[len(users)-1].cumWeight
	r := rng.Float64() * total
	lo, hi := 0, len(users)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if users[mid].cumWeight < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return &users[lo]
}

// template draws one job shape for the user, sized to their partition.
func (u *user) template(rng *rand.Rand, cluster *slurmsim.ClusterSpec) slurmsim.JobSpec {
	part := cluster.Partition(u.partition)
	totals := cluster.Totals(u.partition)
	sp := slurmsim.JobSpec{
		User:      u.id,
		Partition: u.partition,
		ReqNodes:  1,
		QOS:       u.qos,
		// Debug-partition work is overwhelmingly interactive sessions.
		// (Deterministic rule — no RNG draw — so traces generated before
		// this field was populated are bit-identical.)
		Interactive: u.partition == "debug",
	}

	// Requested wall time, clamped to the partition max.
	r := rng.Float64()
	var acc float64
	sp.TimeLimit = timeLimitChoices[len(timeLimitChoices)-1].seconds
	var totalW float64
	for _, c := range timeLimitChoices {
		totalW += c.weight
	}
	for _, c := range timeLimitChoices {
		acc += c.weight / totalW
		if r < acc {
			sp.TimeLimit = c.seconds
			break
		}
	}
	if part.MaxTime > 0 && sp.TimeLimit > part.MaxTime {
		sp.TimeLimit = part.MaxTime
	}

	nodeCPUs := int(totals.CPUPerNode)
	nodeMem := totals.MemPerNode
	switch {
	case part.Exclusive:
		nodes := 1 + u.nodesBias
		if u.partition == "wide" {
			nodes = 2 + rng.Intn(4)
		}
		if nodes > totals.Nodes {
			nodes = totals.Nodes
		}
		sp.ReqNodes = nodes
		sp.ReqCPUs = nodes * nodeCPUs
		sp.ReqMemGB = float64(nodes) * nodeMem
	case u.partition == "gpu":
		// Mostly single-GPU jobs, occasionally multi-GPU.
		sp.ReqGPUs = 1
		if rng.Float64() < 0.3 {
			sp.ReqGPUs = 2 + rng.Intn(3)
		}
		sp.ReqCPUs = sp.ReqGPUs * 16
		sp.ReqMemGB = float64(sp.ReqGPUs) * 64
	default:
		cpus := int(math.Exp(u.cpusLog + rng.NormFloat64()*0.5))
		if cpus < 1 {
			cpus = 1
		}
		if cpus > nodeCPUs {
			cpus = nodeCPUs
		}
		sp.ReqCPUs = cpus
		sp.ReqMemGB = float64(cpus) * nodeMem / float64(nodeCPUs) * (0.5 + rng.Float64())
		if sp.ReqMemGB < 1 {
			sp.ReqMemGB = 1
		}
		if sp.ReqMemGB > nodeMem {
			sp.ReqMemGB = nodeMem
		}
	}

	// Actual runtime: user-specific usage fraction with spread; most jobs
	// finish far before their limit, a few hit it (TIMEOUT).
	frac := u.usageMean * (0.2 + rng.ExpFloat64()*0.8)
	if rng.Float64() < 0.02 {
		frac = 1.0 // timeout
	}
	if frac > 1 {
		frac = 1
	}
	sp.Runtime = int64(frac * float64(sp.TimeLimit))
	if sp.Runtime < 1 {
		sp.Runtime = 1
	}
	return sp
}
