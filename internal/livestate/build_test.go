package livestate

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/features"
	"repro/internal/slurmsim"
	"repro/internal/trace"
)

// TestBuildRefusedStreams: a trace whose event stream the engine would
// refuse, or that never makes a started job eligible, is an error naming
// the job, not a dataset with rows the daemon could never serve.
func TestBuildRefusedStreams(t *testing.T) {
	cluster := slurmsim.ClusterSpec{
		Nodes:      []slurmsim.NodeSpec{{CPUs: 4, MemGB: 8}},
		Partitions: []slurmsim.PartitionSpec{{Name: "shared", Tier: 1, NodeIDs: []int{0}}},
	}
	job := func(id int, submit, eligible, start, end int64) trace.Job {
		return trace.Job{
			ID: id, User: 1, Partition: "shared", State: trace.StateCompleted,
			Submit: submit, Eligible: eligible, Start: start, End: end,
			ReqCPUs: 1, ReqMemGB: 1, ReqNodes: 1, TimeLimit: 600, Priority: int64(id),
		}
	}
	ok := []trace.Job{job(1, 100, 100, 150, 300), job(2, 110, 120, 200, 400), job(3, 130, 130, 130, 500)}
	for _, c := range []struct {
		name string
		bad  trace.Job // appended to ok
		id   int       // the job the error must name
		is   error     // the engine's refusal, when the engine refused
	}{
		{"valid", job(4, 140, 150, 160, 600), 0, nil},
		{"duplicate ID", job(2, 140, 150, 160, 600), 2, ErrDuplicate},
		{"eligible before submit", job(4, 140, 135, 160, 600), 4, ErrUnknownJob},
		{"started before eligible", job(4, 140, 170, 160, 600), 4, ErrStale},
		{"ended before it started", job(4, 140, 150, 600, 160), 4, ErrStale},
		{"no submit time", job(4, 0, 150, 160, 600), 4, nil},
		{"never eligible", job(4, 140, 0, 160, 600), 4, nil},
	} {
		tr := &trace.Trace{Jobs: append(append([]trace.Job(nil), ok...), c.bad)}
		ds, err := Build(tr, &cluster, features.Options{Seed: 1})
		if c.id == 0 {
			if err != nil || ds.Len() != 4 {
				t.Fatalf("%s: %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("%s: built %d rows, want an error", c.name, ds.Len())
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("job %d", c.id)) {
			t.Errorf("%s: error %q does not name job %d", c.name, err, c.id)
		}
		if c.is != nil && !errors.Is(err, c.is) {
			t.Errorf("%s: error %q is not %v", c.name, err, c.is)
		}
	}
}
