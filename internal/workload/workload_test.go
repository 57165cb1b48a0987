package workload

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/slurmsim"
)

func genN(t *testing.T, n int, seed int64) []slurmsim.JobSpec {
	t.Helper()
	cluster := slurmsim.AnvilLike(1)
	specs, err := Generate(DefaultConfig(n, seed), &cluster)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func TestGenerateCountAndIDs(t *testing.T) {
	specs := genN(t, 5000, 1)
	if len(specs) != 5000 {
		t.Fatalf("got %d specs", len(specs))
	}
	for i, sp := range specs {
		if sp.ID != i+1 {
			t.Fatalf("spec %d has ID %d", i, sp.ID)
		}
	}
}

func TestSubmitTimesMonotone(t *testing.T) {
	specs := genN(t, 3000, 2)
	for i := 1; i < len(specs); i++ {
		if specs[i].Submit < specs[i-1].Submit {
			t.Fatalf("submit times not monotone at %d", i)
		}
	}
}

func TestSpecsValidForSimulator(t *testing.T) {
	cluster := slurmsim.AnvilLike(1)
	specs := genN(t, 2000, 3)
	for _, sp := range specs {
		if sp.ReqCPUs <= 0 || sp.ReqNodes <= 0 || sp.ReqMemGB <= 0 {
			t.Fatalf("bad request %+v", sp)
		}
		if sp.Runtime < 1 || sp.Runtime > sp.TimeLimit {
			t.Fatalf("runtime %d outside (0, limit %d]", sp.Runtime, sp.TimeLimit)
		}
		part := cluster.Partition(sp.Partition)
		if part == nil {
			t.Fatalf("unknown partition %q", sp.Partition)
		}
		if part.MaxTime > 0 && sp.TimeLimit > part.MaxTime {
			t.Fatalf("time limit %d over partition max %d", sp.TimeLimit, part.MaxTime)
		}
	}
}

func TestSharedPartitionDominates(t *testing.T) {
	specs := genN(t, 20000, 4)
	count := map[string]int{}
	for _, sp := range specs {
		count[sp.Partition]++
	}
	frac := float64(count["shared"]) / float64(len(specs))
	// Paper: 68.95 %. User-level partition assignment adds variance;
	// accept a broad band around it.
	if frac < 0.5 || frac > 0.85 {
		t.Fatalf("shared fraction %.3f outside [0.5, 0.85]", frac)
	}
	if len(count) < 5 {
		t.Fatalf("only %d partitions used", len(count))
	}
}

func TestWalltimeOverestimation(t *testing.T) {
	specs := genN(t, 20000, 5)
	var mean float64
	for _, sp := range specs {
		mean += float64(sp.Runtime) / float64(sp.TimeLimit)
	}
	mean /= float64(len(specs))
	// Paper: average job used ~15 % of requested wall time.
	if mean < 0.08 || mean > 0.30 {
		t.Fatalf("mean wall-time usage %.3f not in [0.08, 0.30]", mean)
	}
}

func TestZipfUserSkew(t *testing.T) {
	specs := genN(t, 30000, 6)
	perUser := map[int]int{}
	for _, sp := range specs {
		perUser[sp.User]++
	}
	max := 0
	for _, c := range perUser {
		if c > max {
			max = c
		}
	}
	mean := float64(len(specs)) / float64(len(perUser))
	// The heaviest user should dominate the mean by a large factor
	// (paper: max 516914 vs mean 839).
	if float64(max) < 8*mean {
		t.Fatalf("max user %d vs mean %.1f — insufficient skew", max, mean)
	}
}

func TestBurstsProduceSimilarConsecutiveJobs(t *testing.T) {
	specs := genN(t, 20000, 7)
	// Count adjacent pairs from the same user with identical resource
	// shape — the burst correlation the paper's leakage analysis relies on.
	same := 0
	for i := 1; i < len(specs); i++ {
		a, b := specs[i-1], specs[i]
		if a.User == b.User && a.ReqCPUs == b.ReqCPUs && a.TimeLimit == b.TimeLimit {
			same++
		}
	}
	frac := float64(same) / float64(len(specs))
	if frac < 0.2 {
		t.Fatalf("adjacent same-template fraction %.3f — bursts too weak", frac)
	}
}

func TestRequestedTimeStats(t *testing.T) {
	specs := genN(t, 30000, 8)
	var sum float64
	for _, sp := range specs {
		sum += float64(sp.TimeLimit) / 3600
	}
	mean := sum / float64(len(specs))
	// Paper Table I: mean requested 12.55 h. Partition caps pull it down;
	// accept a band.
	if mean < 5 || mean > 20 {
		t.Fatalf("mean requested hours %.2f not in [5, 20]", mean)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := genN(t, 2000, 99)
	b := genN(t, 2000, 99)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("generation is not deterministic")
	}
	c := genN(t, 2000, 100)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave identical workloads")
	}
}

func TestConfigValidation(t *testing.T) {
	cluster := slurmsim.AnvilLike(1)
	bad := []Config{
		{NumJobs: 0, NumUsers: 1, MeanInterarrival: 1},
		{NumJobs: 1, NumUsers: 0, MeanInterarrival: 1},
		{NumJobs: 1, NumUsers: 1, MeanInterarrival: 0},
	}
	for i, cfg := range bad {
		cfg.PartitionMix = map[string]float64{"shared": 1}
		if _, err := Generate(cfg, &cluster); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	cfg := DefaultConfig(10, 1)
	cfg.PartitionMix = map[string]float64{"nonexistent": 1}
	if _, err := Generate(cfg, &cluster); err == nil {
		t.Error("unknown partition in mix accepted")
	}
	cfg = DefaultConfig(10, 1)
	cfg.PartitionMix = map[string]float64{"shared": 0}
	if _, err := Generate(cfg, &cluster); err == nil {
		t.Error("zero-sum mix accepted")
	}
}

func TestEligibleDelays(t *testing.T) {
	cfg := DefaultConfig(10000, 9)
	cfg.EligibleDelayProb = 0.5
	cluster := slurmsim.AnvilLike(1)
	specs, err := Generate(cfg, &cluster)
	if err != nil {
		t.Fatal(err)
	}
	delayed := 0
	for _, sp := range specs {
		if sp.EligibleDelay > 0 {
			delayed++
		}
	}
	frac := float64(delayed) / float64(len(specs))
	if math.Abs(frac-0.5) > 0.1 {
		t.Fatalf("delayed fraction %.3f, want ≈0.5", frac)
	}
}

func TestChainsGenerateDependencies(t *testing.T) {
	cluster := slurmsim.AnvilLike(1)
	cfg := DefaultConfig(20000, 13)
	cfg.ChainProb = 0.5
	specs, err := Generate(cfg, &cluster)
	if err != nil {
		t.Fatal(err)
	}
	deps := 0
	for _, sp := range specs {
		if sp.DependsOn != 0 {
			deps++
			if sp.DependsOn >= sp.ID {
				t.Fatalf("job %d depends on later job %d", sp.ID, sp.DependsOn)
			}
		}
	}
	if deps == 0 {
		t.Fatal("no dependencies generated at ChainProb=0.5")
	}
	// Dependency chains must simulate cleanly.
	tr, st, err := slurmsim.Run(slurmsim.DefaultConfig(1), specs[:5000])
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroChainProbMeansNoDeps(t *testing.T) {
	cluster := slurmsim.AnvilLike(1)
	cfg := DefaultConfig(5000, 14)
	cfg.ChainProb = 0
	specs, err := Generate(cfg, &cluster)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if sp.DependsOn != 0 {
			t.Fatal("dependency generated with ChainProb=0")
		}
	}
}
