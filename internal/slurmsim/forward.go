package slurmsim

import "fmt"

// RunningJob is a job observed mid-execution in a queue snapshot.
type RunningJob struct {
	Spec    JobSpec
	Elapsed int64 // seconds it has already run
}

// ForwardState is a live queue snapshot for the forward-simulation
// estimator: what the scheduler knows at instant Now.
type ForwardState struct {
	Now     int64
	Running []RunningJob
	Pending []JobSpec // includes the target; order carries no meaning
	// TargetID selects the pending job whose start time is wanted.
	TargetID int
}

// EstimateStartTime is the classical scheduler-simulation predictor (the
// pre-ML baseline for queue-wait estimation, cf. Brown et al.): replay the
// scheduler forward assuming every job runs to its requested time limit and
// report when the target starts. It is deterministic and pessimistic —
// real jobs finish early (the paper: mean 15 % wall-time usage), which is
// precisely the error source TROUT's learned model corrects for.
func EstimateStartTime(cfg Config, state ForwardState) (int64, error) {
	s, err := New(cfg)
	if err != nil {
		return 0, err
	}
	s.nUsers = countUsers(state)

	// Seed running jobs: allocate them capacity-equivalently (first-fit;
	// exact node placement is unknown from accounting data) and end them
	// at the pessimistic limit − elapsed.
	for _, r := range state.Running {
		part := cfg.Cluster.Partition(r.Spec.Partition)
		if part == nil {
			return 0, fmt.Errorf("slurmsim: running job %d in unknown partition %q", r.Spec.ID, r.Spec.Partition)
		}
		j := newJob(r.Spec, part, state.Now)
		ids := s.tryAlloc(s.nodes, j)
		if ids == nil {
			// Snapshot inconsistent with cluster capacity (e.g. stale
			// records); skip rather than fail the whole estimate.
			continue
		}
		remaining := r.Spec.TimeLimit - r.Elapsed
		if remaining < 1 {
			remaining = 1
		}
		s.runJob(j, ids, state.Now-r.Elapsed, state.Now+remaining)
	}

	// Seed pending jobs, runtime = full limit (the scheduler's view).
	var target *simJob
	for i := range state.Pending {
		sp := state.Pending[i]
		sp.Runtime = sp.TimeLimit
		part := cfg.Cluster.Partition(sp.Partition)
		if part == nil {
			return 0, fmt.Errorf("slurmsim: pending job %d in unknown partition %q", sp.ID, sp.Partition)
		}
		if err := s.checkFeasible(sp, part); err != nil {
			if sp.ID == state.TargetID {
				return 0, fmt.Errorf("slurmsim: target job infeasible: %w", err)
			}
			continue
		}
		j := newJob(sp, part, state.Now)
		if sp.ID == state.TargetID {
			target = j
		}
		s.push(event{at: state.Now, kind: evEligible, job: j})
	}
	if target == nil {
		return 0, fmt.Errorf("slurmsim: target job %d not in pending set", state.TargetID)
	}

	// Drive the event loop until the target starts (it must: all jobs
	// terminate at their limits).
	for s.step() {
		if target.start > 0 || s.runningIndex(target) >= 0 {
			return target.start, nil
		}
	}
	return 0, fmt.Errorf("slurmsim: event loop drained without starting target %d", state.TargetID)
}

func countUsers(state ForwardState) int {
	users := map[int]bool{}
	for _, r := range state.Running {
		users[r.Spec.User] = true
	}
	for _, p := range state.Pending {
		users[p.User] = true
	}
	if len(users) == 0 {
		return 1
	}
	return len(users)
}
