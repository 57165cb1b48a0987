package features

import (
	"math/rand"
	"testing"

	"repro/internal/slurmsim"
	"repro/internal/trace"
)

// Exported to build_test.go, whose tests build datasets through
// livestate.Build: livestate imports this package, so only the external
// features_test package can call it.
var (
	TinyCluster = tinyCluster
	RandomTrace = randomTrace
	Fidx        = fidx
)

func tinyCluster() slurmsim.ClusterSpec {
	return slurmsim.ClusterSpec{
		Nodes: []slurmsim.NodeSpec{{CPUs: 4, MemGB: 8}, {CPUs: 4, MemGB: 8}},
		Partitions: []slurmsim.PartitionSpec{
			{Name: "shared", Tier: 1, NodeIDs: []int{0, 1}},
		},
	}
}

func fidx(t *testing.T, name string) int {
	t.Helper()
	for i, n := range Names {
		if n == name {
			return i
		}
	}
	t.Fatalf("unknown feature %q", name)
	return -1
}

func TestNamesMatchWidth(t *testing.T) {
	if len(Names) != NumFeatures {
		t.Fatalf("len(Names) = %d, NumFeatures = %d", len(Names), NumFeatures)
	}
	seen := map[string]bool{}
	for _, n := range Names {
		if seen[n] {
			t.Fatalf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
}

// randomTrace produces a consistent random trace for differential tests.
func randomTrace(rng *rand.Rand, n int) *trace.Trace {
	tr := &trace.Trace{}
	var clock int64 = 1000
	for i := 0; i < n; i++ {
		clock += rng.Int63n(100)
		eligible := clock + rng.Int63n(50)
		start := eligible + rng.Int63n(2000)
		end := start + 1 + rng.Int63n(3000)
		tr.Jobs = append(tr.Jobs, trace.Job{
			ID: i + 1, User: rng.Intn(10) + 1, Partition: "shared",
			State:  trace.StateCompleted,
			Submit: clock, Eligible: eligible, Start: start, End: end,
			ReqCPUs: 1 + rng.Intn(4), ReqMemGB: 1 + rng.Float64()*7,
			ReqNodes: 1, TimeLimit: 300 + rng.Int63n(7200),
			Priority: rng.Int63n(1000),
		})
	}
	return tr
}
