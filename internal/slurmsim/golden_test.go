package slurmsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/slurmsim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// goldenRuns pins Run's output, trace and Stats, on the paper-sized
// configurations. A hash changes only when a scheduling decision, a
// priority or a float sum does.
var goldenRuns = []struct {
	name  string
	scale int
	seed  int64
	edit  func(*slurmsim.Config, *workload.Config)
	sha   string
}{
	{name: "anvil1_seed1", scale: 1, seed: 1, sha: "0f0f0bfb606557d5632bd80d8154163f2cdd61e94ad7f3c0b8374af113909510"},
	{name: "anvil1_seed2", scale: 1, seed: 2, sha: "b8227cc0b636b24807ad0eaaad5532a98c1ea9cb72b46806ac4fa8d0ed0f7bd0"},
	{name: "anvil1_seed3", scale: 1, seed: 3, sha: "161aad88d0373d7029177b05d425f0f52011d2b60c63b4aea1dd5b51b694d1d4"},
	{name: "anvil2_seed1", scale: 2, seed: 1, sha: "79a7a6ff32351d4093bdb6a0e7f91466dc6da51482da0034b5b0060e96130950"},
	{name: "no_backfill", scale: 1, seed: 1, sha: "b6cc7e0a8d794ff314a2d694df3f5faa33ce2245a1ce8c63039e50a806298934",
		edit: func(c *slurmsim.Config, _ *workload.Config) { c.DisableBackfill = true }},
	{name: "no_preemption", scale: 1, seed: 1, sha: "d89e8f9a0876321d458b7595629a4738a6f362802528a8e8cd616500e127e7c9",
		edit: func(c *slurmsim.Config, _ *workload.Config) { c.DisablePreemption = true }},
	{name: "dependency_heavy", scale: 1, seed: 5, sha: "8d312e1c219e53243e4dacd5f6c04fbb3eb39afe9df328f87b05474679af34a7",
		edit: func(_ *slurmsim.Config, w *workload.Config) { w.BurstProb, w.ChainProb = 0.5, 0.9 }},
}

// goldenEstimates pins EstimateStartTime's answers on 40 queue snapshots
// cut from the anvil1_seed1 trace, each at the eligibility of a job that
// waited.
const goldenEstimates = "1ba5ad66b2b4e9cf8f0e87e166647cfea06e8260f63b978c525441a750950c18"

// TestRunGolden holds the simulator's output bit for bit. It runs on amd64
// only: the Go compiler may fuse jobPriority's multiply-adds into FMA
// instructions on arm64 (and others), which rounds differently and so can
// flip a priority comparison, and with it the whole trace.
func TestRunGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	var first *trace.Trace
	for _, g := range goldenRuns {
		cfg := slurmsim.DefaultConfig(g.scale)
		wcfg := workload.DefaultConfig(12000, g.seed)
		if g.edit != nil {
			g.edit(&cfg, &wcfg)
		}
		specs, err := workload.Generate(wcfg, &cfg.Cluster)
		if err != nil {
			t.Fatal(err)
		}
		tr, st, err := slurmsim.Run(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = tr
		}
		h := sha256.New()
		for i := range tr.Jobs {
			fmt.Fprintf(h, "%+v\n", tr.Jobs[i])
		}
		fmt.Fprintf(h, "%+v\n", st)
		if got := hex.EncodeToString(h.Sum(nil)); got != g.sha {
			t.Errorf("%s: trace+stats sha256 = %s, want %s", g.name, got, g.sha)
		}
	}

	h := sha256.New()
	cfg := slurmsim.DefaultConfig(1)
	for i, n := 0, 0; i < len(first.Jobs) && n < 40; i += 23 {
		if first.Jobs[i].QueueSeconds() == 0 {
			continue
		}
		n++
		start, err := slurmsim.EstimateStartTime(cfg, forwardState(first.Jobs, i))
		fmt.Fprintf(h, "%d %d %v\n", first.Jobs[i].ID, start, err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenEstimates {
		t.Errorf("EstimateStartTime answers sha256 = %s, want %s", got, goldenEstimates)
	}
}

// forwardState cuts the queue snapshot at job i's eligibility instant the
// way the scheduler-ETA experiment does: running jobs carry their elapsed
// time, everything known to the scheduler carries only its request.
func forwardState(jobs []trace.Job, i int) slurmsim.ForwardState {
	now := jobs[i].Eligible
	st := slurmsim.ForwardState{Now: now, TargetID: jobs[i].ID}
	for k := range jobs {
		j := &jobs[k]
		spec := slurmsim.JobSpec{
			ID: j.ID, User: j.User, Partition: j.Partition, Submit: j.Submit,
			ReqCPUs: j.ReqCPUs, ReqMemGB: j.ReqMemGB, ReqNodes: j.ReqNodes,
			ReqGPUs: j.ReqGPUs, TimeLimit: j.TimeLimit, QOS: j.QOS,
		}
		switch {
		case k == i || (j.Eligible <= now && now < j.Start):
			st.Pending = append(st.Pending, spec)
		case j.Start <= now && now < j.End:
			st.Running = append(st.Running, slurmsim.RunningJob{Spec: spec, Elapsed: now - j.Start})
		}
	}
	return st
}
