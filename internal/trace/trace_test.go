package trace

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleJob(id int) Job {
	return Job{
		ID: id, User: 3, Partition: "shared", State: StateCompleted,
		Submit: 100, Eligible: 120, Start: 300, End: 4000,
		ReqCPUs: 16, ReqMemGB: 32, ReqNodes: 1, ReqGPUs: 0,
		TimeLimit: 7200, Priority: 5000, QOS: 1,
	}
}

func randomTrace(rng *rand.Rand, n int) *Trace {
	t := &Trace{}
	var clock int64 = 1_600_000_000
	for i := 0; i < n; i++ {
		clock += rng.Int63n(120)
		j := Job{
			ID: i, User: rng.Intn(50), Partition: []string{"shared", "wholenode", "gpu"}[rng.Intn(3)],
			State:  StateCompleted,
			Submit: clock, Eligible: clock + rng.Int63n(60),
			ReqCPUs: 1 + rng.Intn(128), ReqMemGB: 1 + rng.Float64()*256,
			ReqNodes: 1 + rng.Intn(4), ReqGPUs: rng.Intn(2),
			TimeLimit: 600 + rng.Int63n(86400), Priority: rng.Int63n(100000), QOS: rng.Intn(3),
		}
		j.Start = j.Eligible + rng.Int63n(3600)
		j.End = j.Start + rng.Int63n(j.TimeLimit)
		t.Jobs = append(t.Jobs, j)
	}
	return t
}

func TestDerivedQuantities(t *testing.T) {
	j := sampleJob(1)
	if j.QueueSeconds() != 180 {
		t.Fatalf("QueueSeconds = %d", j.QueueSeconds())
	}
	if j.QueueMinutes() != 3 {
		t.Fatalf("QueueMinutes = %v", j.QueueMinutes())
	}
	if j.RuntimeSeconds() != 3700 {
		t.Fatalf("RuntimeSeconds = %d", j.RuntimeSeconds())
	}
	if j.WastedSeconds() != 3500 {
		t.Fatalf("WastedSeconds = %d", j.WastedSeconds())
	}
}

func TestWastedNeverNegative(t *testing.T) {
	j := sampleJob(1)
	j.End = j.Start + j.TimeLimit + 999 // ran past the limit (grace)
	if j.WastedSeconds() != 0 {
		t.Fatalf("WastedSeconds = %d, want 0", j.WastedSeconds())
	}
}

func TestValidate(t *testing.T) {
	good := sampleJob(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	cases := []func(*Job){
		func(j *Job) { j.Eligible = j.Submit - 1 },
		func(j *Job) { j.Start = j.Eligible - 1 },
		func(j *Job) { j.End = j.Start - 1 },
		func(j *Job) { j.ReqCPUs = 0 },
		func(j *Job) { j.ReqNodes = 0 },
		func(j *Job) { j.ReqMemGB = 0 },
		func(j *Job) { j.TimeLimit = 0 },
		func(j *Job) { j.Partition = "" },
	}
	for i, mutate := range cases {
		j := sampleJob(i)
		mutate(&j)
		if err := j.Validate(); err == nil {
			t.Errorf("case %d: invalid job accepted", i)
		}
	}
}

func TestSortByEligible(t *testing.T) {
	tr := &Trace{Jobs: []Job{
		{ID: 2, Eligible: 50}, {ID: 1, Eligible: 10}, {ID: 0, Eligible: 50},
	}}
	tr.SortByEligible()
	ids := []int{tr.Jobs[0].ID, tr.Jobs[1].ID, tr.Jobs[2].ID}
	if !reflect.DeepEqual(ids, []int{1, 0, 2}) {
		t.Fatalf("sorted ids = %v", ids)
	}
}

func TestByPartitionAndShortFraction(t *testing.T) {
	tr := &Trace{Jobs: []Job{
		{Partition: "shared", Eligible: 0, Start: 10},
		{Partition: "shared", Eligible: 0, Start: 10000},
		{Partition: "gpu", Eligible: 0, Start: 0},
	}}
	bp := tr.ByPartition()
	if bp["shared"] != 2 || bp["gpu"] != 1 {
		t.Fatalf("ByPartition = %v", bp)
	}
	if got := tr.ShortQueueFraction(600); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("ShortQueueFraction = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Max != 4 || s.Mean != 2.5 || s.Median != 2.5 || s.Count != 4 {
		t.Fatalf("Summarize = %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("StdDev = %v", s.StdDev)
	}
	odd := Summarize([]float64{5, 1, 9})
	if odd.Median != 5 {
		t.Fatalf("odd median = %v", odd.Median)
	}
	if z := Summarize(nil); z.Count != 0 {
		t.Fatalf("empty summarize = %+v", z)
	}
}

func TestTableOne(t *testing.T) {
	tr := &Trace{Jobs: []Job{
		{User: 1, TimeLimit: 7200, Start: 0, End: 3600, ReqCPUs: 1, ReqNodes: 1, ReqMemGB: 1, Partition: "p"},
		{User: 1, TimeLimit: 3600, Start: 0, End: 1800, ReqCPUs: 1, ReqNodes: 1, ReqMemGB: 1, Partition: "p"},
		{User: 2, TimeLimit: 3600, Start: 0, End: 3600, ReqCPUs: 1, ReqNodes: 1, ReqMemGB: 1, Partition: "p"},
	}}
	one := tr.TableOne()
	if one.RequestedHours.Max != 2 || one.RequestedHours.Count != 3 {
		t.Fatalf("RequestedHours = %+v", one.RequestedHours)
	}
	if one.RuntimeHours.Mean != (1+0.5+1)/3 {
		t.Fatalf("RuntimeHours mean = %v", one.RuntimeHours.Mean)
	}
	if one.JobsPerUser.Count != 2 || one.JobsPerUser.Max != 2 {
		t.Fatalf("JobsPerUser = %+v", one.JobsPerUser)
	}
}

func TestMeanWalltimeUsage(t *testing.T) {
	tr := &Trace{Jobs: []Job{
		{TimeLimit: 100, Start: 0, End: 10},
		{TimeLimit: 100, Start: 0, End: 30},
	}}
	if got := tr.MeanWalltimeUsage(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("MeanWalltimeUsage = %v", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := randomTrace(rng, 50)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadCSVTolerant(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Jobs, got.Jobs) {
		t.Fatal("CSV round trip mismatch")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := randomTrace(rng, 50)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadJSONLTolerant(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Jobs, got.Jobs) {
		t.Fatal("JSONL round trip mismatch")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, _, err := ReadCSVTolerant(strings.NewReader("bad,header\n"), 0); err == nil {
		t.Fatal("expected header error")
	}
	good := strings.Join(csvHeader, ",") + "\n"
	if _, _, err := ReadCSVTolerant(strings.NewReader(good+"x,y\n"), 0); err == nil {
		t.Fatal("expected field-count error")
	}
	bad := good + "notanint,3,shared,COMPLETED,1,2,3,4,5,6,7,8,9,10,11,false\n"
	if _, _, err := ReadCSVTolerant(strings.NewReader(bad), 0); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestReadJSONLError(t *testing.T) {
	if _, _, err := ReadJSONLTolerant(strings.NewReader("{not json}\n"), 0); err == nil {
		t.Fatal("expected JSONL error")
	}
}

func TestTraceValidate(t *testing.T) {
	tr := &Trace{Jobs: []Job{sampleJob(1), sampleJob(2)}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tr.Jobs[1].ReqCPUs = 0
	if err := tr.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
}

// Property: Summarize mean is within [min, max] and stddev >= 0.
func TestSummarizeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, math.Mod(x, 1e9))
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		if s.StdDev < 0 || s.Count != len(clean) {
			return false
		}
		return s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
