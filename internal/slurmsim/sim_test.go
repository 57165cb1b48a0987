package slurmsim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// tinyCluster: 2 nodes x 4 CPUs x 8 GB, one shared partition.
func tinyCluster() ClusterSpec {
	return ClusterSpec{
		Nodes: []NodeSpec{{CPUs: 4, MemGB: 8}, {CPUs: 4, MemGB: 8}},
		Partitions: []PartitionSpec{
			{Name: "shared", Tier: 1, NodeIDs: []int{0, 1}},
		},
	}
}

func tinyConfig() Config {
	return Config{
		Cluster:           tinyCluster(),
		Weights:           DefaultPriorityWeights(),
		FairshareHalfLife: 3600,
		BackfillDepth:     50,
		PriorityRefresh:   60,
	}
}

func job(id int, submit, limit, runtime int64, cpus int) JobSpec {
	return JobSpec{
		ID: id, User: 1, Partition: "shared", Submit: submit,
		ReqCPUs: cpus, ReqMemGB: 1, ReqNodes: 1, TimeLimit: limit, Runtime: runtime,
	}
}

func findJob(tr *trace.Trace, id int) *trace.Job {
	for i := range tr.Jobs {
		if tr.Jobs[i].ID == id {
			return &tr.Jobs[i]
		}
	}
	return nil
}

func TestClusterValidate(t *testing.T) {
	good := tinyCluster()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := ClusterSpec{}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty cluster accepted")
	}
	dup := tinyCluster()
	dup.Partitions = append(dup.Partitions, dup.Partitions[0])
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate partition accepted")
	}
	oob := tinyCluster()
	oob.Partitions[0].NodeIDs = []int{5}
	if err := oob.Validate(); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestTotals(t *testing.T) {
	c := tinyCluster()
	tot := c.Totals("shared")
	if tot.Nodes != 2 || tot.CPUs != 8 || tot.MemGB != 16 || tot.CPUPerNode != 4 {
		t.Fatalf("Totals = %+v", tot)
	}
	if c.Totals("nope").Nodes != 0 {
		t.Fatal("unknown partition should have zero totals")
	}
}

func TestAnvilLikeShape(t *testing.T) {
	c := AnvilLike(1)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Partitions) != 7 {
		t.Fatalf("AnvilLike has %d partitions, want 7 (paper)", len(c.Partitions))
	}
	if c.Totals("gpu").GPUs == 0 {
		t.Fatal("gpu partition has no GPUs")
	}
	// GPU partition isolated from CPU pool.
	cpuSet := map[int]bool{}
	for _, id := range c.Partition("shared").NodeIDs {
		cpuSet[id] = true
	}
	for _, id := range c.Partition("gpu").NodeIDs {
		if cpuSet[id] {
			t.Fatal("gpu partition shares nodes with shared")
		}
	}
	// wholenode shares the CPU pool with shared (as on Anvil).
	if c.Partition("wholenode").NodeIDs[0] != c.Partition("shared").NodeIDs[0] {
		t.Fatal("wholenode should share the CPU pool")
	}
}

func TestImmediateStartOnEmptyCluster(t *testing.T) {
	tr, st, err := Run(tinyConfig(), []JobSpec{job(1, 100, 600, 300, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 1 {
		t.Fatalf("completed %d", st.Completed)
	}
	j := findJob(tr, 1)
	if j.Start != 100 || j.End != 400 {
		t.Fatalf("start/end = %d/%d", j.Start, j.End)
	}
	if j.QueueSeconds() != 0 {
		t.Fatalf("queue = %d", j.QueueSeconds())
	}
}

func TestContendedJobWaits(t *testing.T) {
	// Job 1 takes all 8 CPUs for 1000s; job 2 needs 8 CPUs too.
	specs := []JobSpec{
		{ID: 1, User: 1, Partition: "shared", Submit: 0, ReqCPUs: 8, ReqMemGB: 2, ReqNodes: 2, TimeLimit: 2000, Runtime: 1000},
		{ID: 2, User: 2, Partition: "shared", Submit: 10, ReqCPUs: 8, ReqMemGB: 2, ReqNodes: 2, TimeLimit: 2000, Runtime: 500},
	}
	tr, _, err := Run(tinyConfig(), specs)
	if err != nil {
		t.Fatal(err)
	}
	j2 := findJob(tr, 2)
	if j2.Start != 1000 {
		t.Fatalf("job 2 started at %d, want 1000", j2.Start)
	}
	if j2.QueueSeconds() != 990 {
		t.Fatalf("job 2 queue = %d", j2.QueueSeconds())
	}
}

func TestEligibleDelayRespected(t *testing.T) {
	specs := []JobSpec{{
		ID: 1, User: 1, Partition: "shared", Submit: 0, EligibleDelay: 500,
		ReqCPUs: 1, ReqMemGB: 1, ReqNodes: 1, TimeLimit: 100, Runtime: 50,
	}}
	tr, _, err := Run(tinyConfig(), specs)
	if err != nil {
		t.Fatal(err)
	}
	j := findJob(tr, 1)
	if j.Eligible != 500 || j.Start != 500 {
		t.Fatalf("eligible/start = %d/%d", j.Eligible, j.Start)
	}
	if j.QueueSeconds() != 0 {
		t.Fatal("delay before eligibility must not count as queue time")
	}
}

func TestBackfillShortJobJumpsAhead(t *testing.T) {
	// t=0: job 1 takes 6 of 8 CPUs until t=1000, leaving a 2-CPU gap.
	// Job 2 (first waiter, wants everything) must wait until t=1000.
	// Job 3 is tiny and short: it fits in the gap and ends before the
	// shadow time, so EASY backfill should start it immediately.
	specs := []JobSpec{
		{ID: 1, User: 1, Partition: "shared", Submit: 0, ReqCPUs: 6, ReqMemGB: 2, ReqNodes: 2, TimeLimit: 1200, Runtime: 1000},
		{ID: 2, User: 1, Partition: "shared", Submit: 1, ReqCPUs: 8, ReqMemGB: 2, ReqNodes: 2, TimeLimit: 1200, Runtime: 200},
		{ID: 3, User: 2, Partition: "shared", Submit: 2, ReqCPUs: 1, ReqMemGB: 1, ReqNodes: 1, TimeLimit: 300, Runtime: 100},
	}
	tr, st, err := Run(tinyConfig(), specs)
	if err != nil {
		t.Fatal(err)
	}
	j3 := findJob(tr, 3)
	if j3.Start != 2 {
		t.Fatalf("backfill job started at %d, want 2", j3.Start)
	}
	j2 := findJob(tr, 2)
	if j2.Start != 1000 {
		t.Fatalf("blocked job started at %d, want 1000", j2.Start)
	}
	if st.BackfillStarts == 0 {
		t.Fatal("no backfill starts recorded")
	}
}

func TestBackfillCannotDelayReservation(t *testing.T) {
	// Same as above but job 3's time limit exceeds the shadow time and it
	// needs a CPU on a reserved node — it must NOT backfill. Job 3 asks
	// for 4 CPUs on 1 node; the reservation (job 2) needs both whole
	// nodes, so any allocation intersects reserved nodes.
	specs := []JobSpec{
		{ID: 1, User: 1, Partition: "shared", Submit: 0, ReqCPUs: 6, ReqMemGB: 2, ReqNodes: 2, TimeLimit: 1200, Runtime: 1000},
		{ID: 2, User: 1, Partition: "shared", Submit: 1, ReqCPUs: 8, ReqMemGB: 2, ReqNodes: 2, TimeLimit: 1200, Runtime: 200},
		{ID: 3, User: 2, Partition: "shared", Submit: 2, ReqCPUs: 1, ReqMemGB: 1, ReqNodes: 1, TimeLimit: 5000, Runtime: 4000},
	}
	tr, _, err := Run(tinyConfig(), specs)
	if err != nil {
		t.Fatal(err)
	}
	j3 := findJob(tr, 3)
	if j3.Start == 2 {
		t.Fatal("long job backfilled although it would delay the reservation")
	}
}

func TestExclusivePartitionTakesWholeNodes(t *testing.T) {
	cfg := tinyConfig()
	cfg.Cluster.Partitions = append(cfg.Cluster.Partitions,
		PartitionSpec{Name: "wholenode", Tier: 1, NodeIDs: []int{0, 1}, Exclusive: true})
	specs := []JobSpec{
		{ID: 1, User: 1, Partition: "wholenode", Submit: 0, ReqCPUs: 1, ReqMemGB: 1, ReqNodes: 1, TimeLimit: 1000, Runtime: 800},
		// Shared 4-cpu job: only node 1 is fully free, node 0 is
		// exclusively held even though job 1 asked for 1 CPU.
		{ID: 2, User: 2, Partition: "shared", Submit: 10, ReqCPUs: 8, ReqMemGB: 2, ReqNodes: 2, TimeLimit: 1000, Runtime: 100},
	}
	tr, _, err := Run(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	j2 := findJob(tr, 2)
	if j2.Start != 800 {
		t.Fatalf("job 2 started at %d, want 800 (after exclusive job frees node)", j2.Start)
	}
}

func TestHigherTierPartitionWins(t *testing.T) {
	cfg := tinyConfig()
	cfg.Cluster.Partitions = append(cfg.Cluster.Partitions,
		PartitionSpec{Name: "debug", Tier: 9, NodeIDs: []int{0, 1}})
	// Fill the cluster, then two waiters: shared (submitted earlier) and
	// debug (higher tier). Debug must start first.
	specs := []JobSpec{
		{ID: 1, User: 1, Partition: "shared", Submit: 0, ReqCPUs: 8, ReqMemGB: 2, ReqNodes: 2, TimeLimit: 1000, Runtime: 500},
		{ID: 2, User: 2, Partition: "shared", Submit: 1, ReqCPUs: 8, ReqMemGB: 2, ReqNodes: 2, TimeLimit: 1000, Runtime: 100},
		{ID: 3, User: 3, Partition: "debug", Submit: 2, ReqCPUs: 8, ReqMemGB: 2, ReqNodes: 2, TimeLimit: 1000, Runtime: 100},
	}
	tr, _, err := Run(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if findJob(tr, 3).Start >= findJob(tr, 2).Start {
		t.Fatal("higher-tier partition job should start before lower-tier")
	}
}

func TestFairshareDeprioritizesHeavyUser(t *testing.T) {
	cfg := tinyConfig()
	// User 1 burns the cluster for a long time, charging usage. Then two
	// identical contending jobs (user 1 vs user 2) race for the freed
	// resources: user 2's fair-share factor should win.
	specs := []JobSpec{
		{ID: 1, User: 1, Partition: "shared", Submit: 0, ReqCPUs: 8, ReqMemGB: 2, ReqNodes: 2, TimeLimit: 5000, Runtime: 4000},
		{ID: 2, User: 1, Partition: "shared", Submit: 100, ReqCPUs: 8, ReqMemGB: 2, ReqNodes: 2, TimeLimit: 1000, Runtime: 100},
		{ID: 3, User: 2, Partition: "shared", Submit: 200, ReqCPUs: 8, ReqMemGB: 2, ReqNodes: 2, TimeLimit: 1000, Runtime: 100},
	}
	tr, _, err := Run(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	// Despite submitting later, user 2 should run before user 1's second job.
	if findJob(tr, 3).Start >= findJob(tr, 2).Start {
		t.Fatal("fair share did not deprioritize the heavy user")
	}
}

func TestTimeoutState(t *testing.T) {
	specs := []JobSpec{job(1, 0, 100, 100, 1)} // runtime == limit
	tr, _, err := Run(tinyConfig(), specs)
	if err != nil {
		t.Fatal(err)
	}
	j := findJob(tr, 1)
	if j.State != trace.StateTimeout {
		t.Fatalf("state = %s, want TIMEOUT", j.State)
	}
	if j.RuntimeSeconds() != 100 {
		t.Fatalf("runtime = %d", j.RuntimeSeconds())
	}
}

func TestRuntimeClampedAtLimit(t *testing.T) {
	specs := []JobSpec{job(1, 0, 100, 500, 1)}
	tr, _, err := Run(tinyConfig(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if findJob(tr, 1).RuntimeSeconds() != 100 {
		t.Fatal("scheduler must kill jobs at their time limit")
	}
}

func TestInfeasibleJobsRejected(t *testing.T) {
	specs := []JobSpec{
		{ID: 1, User: 1, Partition: "shared", ReqCPUs: 99, ReqMemGB: 1, ReqNodes: 1, TimeLimit: 100, Runtime: 50}, // > node CPUs
		{ID: 2, User: 1, Partition: "shared", ReqCPUs: 1, ReqMemGB: 1, ReqNodes: 5, TimeLimit: 100, Runtime: 50},  // > partition nodes
		job(3, 0, 100, 50, 1), // fine
	}
	tr, st, err := Run(tinyConfig(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 2 || st.Completed != 1 || len(tr.Jobs) != 1 {
		t.Fatalf("rejected=%d completed=%d", st.Rejected, st.Completed)
	}
}

func TestUnknownPartitionErrors(t *testing.T) {
	specs := []JobSpec{{ID: 1, User: 1, Partition: "nope", ReqCPUs: 1, ReqMemGB: 1, ReqNodes: 1, TimeLimit: 10, Runtime: 5}}
	if _, _, err := Run(tinyConfig(), specs); err == nil {
		t.Fatal("expected unknown-partition error")
	}
}

func TestMaxTimeEnforced(t *testing.T) {
	cfg := tinyConfig()
	cfg.Cluster.Partitions[0].MaxTime = 50
	_, st, err := Run(cfg, []JobSpec{job(1, 0, 100, 10, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 1 {
		t.Fatal("over-limit job not rejected")
	}
}

// randomSpecs builds a moderately loaded random workload.
func randomSpecs(rng *rand.Rand, n int) []JobSpec {
	specs := make([]JobSpec, n)
	var clock int64
	for i := range specs {
		clock += rng.Int63n(40)
		limit := int64(60 + rng.Intn(4000))
		specs[i] = JobSpec{
			ID: i + 1, User: rng.Intn(8), Partition: "shared", Submit: clock,
			EligibleDelay: int64(rng.Intn(3)) * 30,
			ReqCPUs:       1 + rng.Intn(4), ReqMemGB: 1 + rng.Float64()*4,
			ReqNodes: 1, TimeLimit: limit, Runtime: rng.Int63n(limit),
			QOS: rng.Intn(3),
		}
	}
	return specs
}

// TestTraceInvariants: every produced record is internally valid, all
// submitted feasible jobs complete, and the trace is sorted by eligibility.
func TestTraceInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	specs := randomSpecs(rng, 500)
	tr, st, err := Run(tinyConfig(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed+st.Rejected != len(specs) {
		t.Fatalf("completed %d + rejected %d != %d", st.Completed, st.Rejected, len(specs))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(tr.Jobs); i++ {
		if tr.Jobs[i].Eligible < tr.Jobs[i-1].Eligible {
			t.Fatal("trace not sorted by eligibility")
		}
	}
}

// TestAllNodesFreedAfterDrain: resource conservation — after the event loop
// drains, every node is back to full capacity.
func TestAllNodesFreedAfterDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	specs := randomSpecs(rng, 300)
	cfg := tinyConfig()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.admit(specs); err != nil {
		t.Fatal(err)
	}
	for sim.step() {
	}
	for i, n := range sim.nodes {
		spec := cfg.Cluster.Nodes[i]
		if n.freeCPUs != spec.CPUs || n.freeMemGB != spec.MemGB || n.freeGPUs != spec.GPUs || n.busyJobs != 0 {
			t.Fatalf("node %d not fully freed: %+v", i, n)
		}
	}
	if len(sim.pending) != 0 || len(sim.running) != 0 {
		t.Fatalf("%d jobs still pending, %d running after drain", len(sim.pending), len(sim.running))
	}
}

// TestDeterminism: identical inputs produce identical traces.
func TestDeterminism(t *testing.T) {
	rng1 := rand.New(rand.NewSource(44))
	rng2 := rand.New(rand.NewSource(44))
	a, _, err := Run(tinyConfig(), randomSpecs(rng1, 400))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run(tinyConfig(), randomSpecs(rng2, 400))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Jobs, b.Jobs) {
		t.Fatal("simulation is not deterministic")
	}
}

// TestNoOverlapBeyondCapacity: at no instant may the CPU demand of running
// jobs exceed a node's capacity. Reconstructed from the trace.
func TestNoOverlapBeyondCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	specs := randomSpecs(rng, 400)
	tr, _, err := Run(tinyConfig(), specs)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate check: total concurrent CPU demand never exceeds 8.
	type ev struct {
		at    int64
		delta int
	}
	var evs []ev
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		if j.End == j.Start {
			continue
		}
		evs = append(evs, ev{j.Start, j.ReqCPUs}, ev{j.End, -j.ReqCPUs})
	}
	// Sort by time with frees first.
	for i := range evs {
		for k := i + 1; k < len(evs); k++ {
			if evs[k].at < evs[i].at || (evs[k].at == evs[i].at && evs[k].delta < evs[i].delta) {
				evs[i], evs[k] = evs[k], evs[i]
			}
		}
	}
	cur := 0
	for _, e := range evs {
		cur += e.delta
		if cur > 8 {
			t.Fatalf("concurrent CPU demand %d exceeds cluster capacity 8", cur)
		}
	}
}

func TestFairshareFactorMath(t *testing.T) {
	fs := newFairshare(3600)
	if f := fs.Factor(1, 0, 4); f != 1 {
		t.Fatalf("factor with no usage = %v, want 1", f)
	}
	fs.Charge(1, 1000, 0)
	f1 := fs.Factor(1, 0, 2) // user 1 holds 100% of usage, share 0.5 → 2^-2 = 0.25
	if f1 != 0.25 {
		t.Fatalf("factor = %v, want 0.25", f1)
	}
	// Decay: after one half-life the user's share of total is unchanged
	// (both decay), so factor stays.
	f2 := fs.Factor(1, 3600, 2)
	if f2 != f1 {
		t.Fatalf("relative usage should be decay-invariant: %v vs %v", f2, f1)
	}
	// A second user charging shifts the ratio.
	fs.Charge(2, 3000, 3600)
	if fs.Factor(1, 3600, 2) <= f1 {
		t.Fatal("other user's usage should raise user 1's factor")
	}
}

func BenchmarkSimulate2k(b *testing.B) {
	rng := rand.New(rand.NewSource(46))
	specs := randomSpecs(rng, 2000)
	cfg := tinyConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(cfg, specs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDisableBackfill(t *testing.T) {
	// Same scenario as TestBackfillShortJobJumpsAhead, but with backfill
	// off the tiny job must wait behind the blocked big job.
	cfg := tinyConfig()
	cfg.DisableBackfill = true
	specs := []JobSpec{
		{ID: 1, User: 1, Partition: "shared", Submit: 0, ReqCPUs: 6, ReqMemGB: 2, ReqNodes: 2, TimeLimit: 1200, Runtime: 1000},
		{ID: 2, User: 1, Partition: "shared", Submit: 1, ReqCPUs: 8, ReqMemGB: 2, ReqNodes: 2, TimeLimit: 1200, Runtime: 200},
		{ID: 3, User: 2, Partition: "shared", Submit: 2, ReqCPUs: 1, ReqMemGB: 1, ReqNodes: 1, TimeLimit: 300, Runtime: 100},
	}
	tr, st, err := Run(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if st.BackfillStarts != 0 {
		t.Fatalf("%d backfill starts with backfill disabled", st.BackfillStarts)
	}
	if findJob(tr, 3).Start <= 2 {
		t.Fatal("job 3 backfilled although backfill is disabled")
	}
}
