package slurmsim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// fuzzWorkload builds a small random cluster (overlapping, exclusive and
// preemptible partitions) and a job stream with dependencies on it.
func fuzzWorkload(seed int64, n, shape uint8) (Config, []JobSpec) {
	rng := rand.New(rand.NewSource(seed))
	var c ClusterSpec
	for i := 0; i < 1+int(shape%4); i++ {
		c.Nodes = append(c.Nodes, NodeSpec{CPUs: 2 + rng.Intn(8), MemGB: float64(4 + rng.Intn(16)), GPUs: rng.Intn(3)})
	}
	for p := 0; p < 1+int(shape/4%3); p++ {
		var ids []int
		for id := range c.Nodes {
			if rng.Intn(3) > 0 {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			ids = []int{rng.Intn(len(c.Nodes))}
		}
		c.Partitions = append(c.Partitions, PartitionSpec{
			Name: string(rune('a' + p)), Tier: 1 + rng.Intn(3), NodeIDs: ids,
			Exclusive: rng.Intn(3) == 0, Preemptible: rng.Intn(3) == 0,
			MaxTime: int64(rng.Intn(2)) * 3000,
		})
	}
	cfg := Config{
		Cluster: c, Weights: DefaultPriorityWeights(), FairshareHalfLife: 3600,
		BackfillDepth:     rng.Intn(6),
		PriorityRefresh:   int64(rng.Intn(120)),
		DisableBackfill:   shape&32 != 0,
		DisablePreemption: shape&64 != 0,
	}
	specs := make([]JobSpec, 1+int(n%64))
	var clock int64
	for i := range specs {
		clock += rng.Int63n(100)
		nodes := 1 + rng.Intn(2)
		limit := int64(1 + rng.Intn(2000))
		specs[i] = JobSpec{
			ID: i + 1, User: rng.Intn(4), Partition: c.Partitions[rng.Intn(len(c.Partitions))].Name,
			Submit: clock, EligibleDelay: int64(rng.Intn(3)) * 50,
			ReqCPUs: nodes * (1 + rng.Intn(4)), ReqMemGB: float64(nodes) * (0.5 + rng.Float64()*6),
			ReqNodes: nodes, ReqGPUs: rng.Intn(4) / 3 * nodes, TimeLimit: limit,
			Runtime: rng.Int63n(limit + limit/4 + 1), QOS: rng.Intn(3),
		}
		if i > 0 && rng.Intn(4) == 0 {
			specs[i].DependsOn = 1 + rng.Intn(i)
		}
	}
	return cfg, specs
}

// checkStep holds the simulator's bookkeeping against itself after one
// step: nodes within capacity and equal to what the running set holds, and
// the running set exactly the jobs with a live end event, ordered by
// (end, ID).
func checkStep(t *testing.T, s *Simulator) {
	t.Helper()
	live := map[*simJob]bool{}
	for _, ev := range s.events {
		if ev.kind == evEnd && ev.epoch == ev.job.runEpoch {
			if live[ev.job] {
				t.Fatalf("job %d has two live end events", ev.job.spec.ID)
			}
			live[ev.job] = true
		}
	}
	if len(live) != len(s.running) {
		t.Fatalf("%d jobs have a live end event, running set holds %d", len(live), len(s.running))
	}
	type use struct {
		jobs, cpus, gpus int
		mem              float64
		exclusive        bool
	}
	uses := make([]use, len(s.nodes))
	for i, j := range s.running {
		if !live[j] {
			t.Fatalf("running job %d has no live end event", j.spec.ID)
		}
		if i > 0 && byEnd(s.running[i-1], j) >= 0 {
			t.Fatalf("running set out of (end, ID) order at %d", i)
		}
		for _, id := range j.alloc.nodeIDs {
			u := &uses[id]
			u.jobs++
			u.cpus += j.alloc.cpus
			u.gpus += j.alloc.gpus
			u.mem += j.alloc.memGB
			u.exclusive = u.exclusive || j.alloc.exclusive
		}
	}
	for id, n := range s.nodes {
		spec, u := s.cfg.Cluster.Nodes[id], uses[id]
		if n.busyJobs != u.jobs {
			t.Fatalf("node %d: busyJobs %d, running set holds %d", id, n.busyJobs, u.jobs)
		}
		if u.exclusive {
			if u.jobs != 1 || n.freeCPUs != 0 || n.freeGPUs != 0 || n.freeMemGB != 0 {
				t.Fatalf("node %d: exclusive holder shares it: %+v with %d jobs", id, n, u.jobs)
			}
			continue
		}
		if n.freeCPUs != spec.CPUs-u.cpus || n.freeGPUs != spec.GPUs-u.gpus ||
			math.Abs(n.freeMemGB-(spec.MemGB-u.mem)) > 1e-9*spec.MemGB {
			t.Fatalf("node %d: state %+v, running set uses %+v of %+v", id, n, u, spec)
		}
		if n.freeCPUs < 0 || n.freeGPUs < 0 || n.freeMemGB < -1e-9*spec.MemGB {
			t.Fatalf("node %d over capacity: %+v", id, n)
		}
	}
}

func FuzzSimulate(f *testing.F) {
	// Seed 10 preempts.
	for i := 0; i < 12; i++ {
		f.Add(int64(i), uint8(20+5*i), uint8(13*i))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, shape uint8) {
		cfg, specs := fuzzWorkload(seed, n, shape)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.admit(specs); err != nil {
			t.Fatal(err)
		}
		for s.step() {
			checkStep(t, s)
		}
		for id, n := range s.nodes {
			spec := cfg.Cluster.Nodes[id]
			if n.busyJobs != 0 || n.freeCPUs != spec.CPUs || n.freeGPUs != spec.GPUs ||
				math.Abs(n.freeMemGB-spec.MemGB) > 1e-9*spec.MemGB {
				t.Fatalf("node %d not free after the drain: %+v", id, n)
			}
		}
		if len(s.pending) != 0 || len(s.waiting) != 0 {
			t.Fatalf("%d pending, %d waiting after the drain", len(s.pending), len(s.waiting))
		}

		tr, st, err := Run(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		again, st2, _ := Run(cfg, specs)
		if !reflect.DeepEqual(tr, again) || st != st2 {
			t.Fatal("two runs of the same input differ")
		}
		if st.Completed+st.Rejected != len(specs) || len(tr.Jobs) != st.Completed {
			t.Fatalf("%d completed + %d rejected of %d specs, %d in the trace", st.Completed, st.Rejected, len(specs), len(tr.Jobs))
		}
		byID := map[int]int{}
		for i := range tr.Jobs {
			j := &tr.Jobs[i]
			if _, dup := byID[j.ID]; dup {
				t.Fatalf("job %d completed twice", j.ID)
			}
			byID[j.ID] = i
			sp := specs[j.ID-1]
			if j.Start < j.Eligible || j.Eligible < sp.Submit+sp.EligibleDelay || j.End < j.Start {
				t.Fatalf("job %d: submit %d+%d eligible %d start %d end %d", j.ID, sp.Submit, sp.EligibleDelay, j.Eligible, j.Start, j.End)
			}
		}
		for i := range tr.Jobs {
			j := &tr.Jobs[i]
			if j.DependsOn == 0 {
				continue
			}
			dep, ok := byID[j.DependsOn]
			if !ok || j.Eligible < tr.Jobs[dep].End {
				t.Fatalf("job %d eligible at %d before its dependency %d ended", j.ID, j.Eligible, j.DependsOn)
			}
		}
	})
}
