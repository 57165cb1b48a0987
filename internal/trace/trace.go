// Package trace defines the Slurm-accounting-style job record produced by
// the cluster simulator and consumed by feature engineering, together with
// CSV and JSONL codecs and the summary statistics behind the paper's
// Table I. Times are Unix seconds; a record mirrors the fields TROUT reads
// from Slurm's historical accounting data.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// JobState mirrors the Slurm terminal states that appear in accounting data.
type JobState string

// Job states. Only completed-family states carry a meaningful queue time.
const (
	StateCompleted JobState = "COMPLETED"
	StateFailed    JobState = "FAILED"
	StateTimeout   JobState = "TIMEOUT"
	StateCancelled JobState = "CANCELLED"
)

// Job is one accounting record.
type Job struct {
	ID        int      `json:"id"`
	User      int      `json:"user"`
	Partition string   `json:"partition"`
	State     JobState `json:"state"`

	// Times, Unix seconds. Eligible >= Submit (jobs with dependencies or
	// begin-times become eligible later); Start >= Eligible; End >= Start.
	Submit   int64 `json:"submit"`
	Eligible int64 `json:"eligible"`
	Start    int64 `json:"start"`
	End      int64 `json:"end"`

	// Requested resources.
	ReqCPUs     int     `json:"req_cpus"`
	ReqMemGB    float64 `json:"req_mem_gb"`
	ReqNodes    int     `json:"req_nodes"`
	ReqGPUs     int     `json:"req_gpus"`
	TimeLimit   int64   `json:"time_limit"` // seconds of requested wall time
	Priority    int64   `json:"priority"`   // Slurm multifactor priority at submission
	QOS         int     `json:"qos"`        // QOS tier index
	Interactive bool    `json:"interactive"`
	// DependsOn is the ID of the job this one waited for (afterany
	// dependency), 0 if none — one reason Eligible can exceed Submit.
	DependsOn int `json:"depends_on,omitempty"`
}

// QueueSeconds returns the delay between eligibility and start — the
// quantity TROUT predicts (the paper reports it in minutes).
func (j *Job) QueueSeconds() int64 { return j.Start - j.Eligible }

// QueueMinutes returns the queue time in minutes.
func (j *Job) QueueMinutes() float64 { return float64(j.QueueSeconds()) / 60 }

// RuntimeSeconds returns the actual wall time used.
func (j *Job) RuntimeSeconds() int64 { return j.End - j.Start }

// WastedSeconds returns requested-minus-used wall time (never negative).
func (j *Job) WastedSeconds() int64 {
	w := j.TimeLimit - j.RuntimeSeconds()
	if w < 0 {
		return 0
	}
	return w
}

// Validate checks internal consistency of the record.
func (j *Job) Validate() error {
	switch {
	case j.Eligible < j.Submit:
		return fmt.Errorf("trace: job %d eligible %d before submit %d", j.ID, j.Eligible, j.Submit)
	case j.Start < j.Eligible:
		return fmt.Errorf("trace: job %d start %d before eligible %d", j.ID, j.Start, j.Eligible)
	case j.End < j.Start:
		return fmt.Errorf("trace: job %d end %d before start %d", j.ID, j.End, j.Start)
	case j.ReqCPUs <= 0 || j.ReqNodes <= 0:
		return fmt.Errorf("trace: job %d requests %d cpus %d nodes", j.ID, j.ReqCPUs, j.ReqNodes)
	case j.ReqMemGB <= 0:
		return fmt.Errorf("trace: job %d requests %.2f GB", j.ID, j.ReqMemGB)
	case j.TimeLimit <= 0:
		return fmt.Errorf("trace: job %d has time limit %d", j.ID, j.TimeLimit)
	case j.Partition == "":
		return fmt.Errorf("trace: job %d has no partition", j.ID)
	}
	return nil
}

// Trace is an ordered collection of job records.
type Trace struct {
	Jobs []Job
}

// Validate checks every record.
func (t *Trace) Validate() error {
	for i := range t.Jobs {
		if err := t.Jobs[i].Validate(); err != nil {
			return err
		}
	}
	return nil
}

// SortByEligible orders jobs by eligibility time (ties by ID), the order
// feature engineering and time-series splitting require.
func (t *Trace) SortByEligible() {
	sort.Slice(t.Jobs, func(i, j int) bool {
		if t.Jobs[i].Eligible != t.Jobs[j].Eligible {
			return t.Jobs[i].Eligible < t.Jobs[j].Eligible
		}
		return t.Jobs[i].ID < t.Jobs[j].ID
	})
}

// FilterPartition returns a new trace holding only the named partition's
// jobs (records are copied by value; order is preserved).
func (t *Trace) FilterPartition(name string) *Trace {
	out := &Trace{}
	for i := range t.Jobs {
		if t.Jobs[i].Partition == name {
			out.Jobs = append(out.Jobs, t.Jobs[i])
		}
	}
	return out
}

// Span returns the earliest submit and latest end in the trace (0, 0 for an
// empty trace).
func (t *Trace) Span() (first, last int64) {
	if len(t.Jobs) == 0 {
		return 0, 0
	}
	first, last = t.Jobs[0].Submit, t.Jobs[0].End
	for i := range t.Jobs {
		if t.Jobs[i].Submit < first {
			first = t.Jobs[i].Submit
		}
		if t.Jobs[i].End > last {
			last = t.Jobs[i].End
		}
	}
	return first, last
}

// ByPartition counts jobs per partition.
func (t *Trace) ByPartition() map[string]int {
	m := map[string]int{}
	for i := range t.Jobs {
		m[t.Jobs[i].Partition]++
	}
	return m
}

// ShortQueueFraction returns the fraction of jobs queueing less than
// cutoff seconds (the paper: 87% under 10 minutes).
func (t *Trace) ShortQueueFraction(cutoffSeconds int64) float64 {
	if len(t.Jobs) == 0 {
		return 0
	}
	n := 0
	for i := range t.Jobs {
		if t.Jobs[i].QueueSeconds() < cutoffSeconds {
			n++
		}
	}
	return float64(n) / float64(len(t.Jobs))
}

// Summary holds the five statistics reported per variable in Table I.
type Summary struct {
	Max, Mean, Median, StdDev float64
	Count                     int
}

// Summarize computes Table I-style statistics for a sample.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := Summary{Count: n, Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(n)
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	s.StdDev = math.Sqrt(sq / float64(n))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		s.Median = sorted[n/2]
	} else {
		s.Median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return s
}

// TableOneStats mirrors the paper's Table I.
type TableOneStats struct {
	RequestedHours Summary
	RuntimeHours   Summary
	WastedHours    Summary
	JobsPerUser    Summary
}

// TableOne computes the paper's Table I statistics over the trace.
func (t *Trace) TableOne() TableOneStats {
	n := len(t.Jobs)
	req := make([]float64, n)
	run := make([]float64, n)
	waste := make([]float64, n)
	perUser := map[int]float64{}
	for i := range t.Jobs {
		j := &t.Jobs[i]
		req[i] = float64(j.TimeLimit) / 3600
		run[i] = float64(j.RuntimeSeconds()) / 3600
		waste[i] = float64(j.WastedSeconds()) / 3600
		perUser[j.User]++
	}
	users := make([]float64, 0, len(perUser))
	for _, c := range perUser {
		users = append(users, c)
	}
	return TableOneStats{
		RequestedHours: Summarize(req),
		RuntimeHours:   Summarize(run),
		WastedHours:    Summarize(waste),
		JobsPerUser:    Summarize(users),
	}
}

// MeanWalltimeUsage returns the mean of runtime/timelimit across jobs — the
// paper reports ≈15% on Anvil.
func (t *Trace) MeanWalltimeUsage() float64 {
	if len(t.Jobs) == 0 {
		return 0
	}
	var s float64
	for i := range t.Jobs {
		j := &t.Jobs[i]
		s += float64(j.RuntimeSeconds()) / float64(j.TimeLimit)
	}
	return s / float64(len(t.Jobs))
}

var csvHeader = []string{
	"id", "user", "partition", "state", "submit", "eligible", "start", "end",
	"req_cpus", "req_mem_gb", "req_nodes", "req_gpus", "time_limit",
	"priority", "qos", "interactive", "depends_on",
}

// WriteCSV serializes the trace as CSV with a header row.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	rec := make([]string, len(csvHeader))
	for i := range t.Jobs {
		j := &t.Jobs[i]
		rec[0] = strconv.Itoa(j.ID)
		rec[1] = strconv.Itoa(j.User)
		rec[2] = j.Partition
		rec[3] = string(j.State)
		rec[4] = strconv.FormatInt(j.Submit, 10)
		rec[5] = strconv.FormatInt(j.Eligible, 10)
		rec[6] = strconv.FormatInt(j.Start, 10)
		rec[7] = strconv.FormatInt(j.End, 10)
		rec[8] = strconv.Itoa(j.ReqCPUs)
		rec[9] = strconv.FormatFloat(j.ReqMemGB, 'g', -1, 64)
		rec[10] = strconv.Itoa(j.ReqNodes)
		rec[11] = strconv.Itoa(j.ReqGPUs)
		rec[12] = strconv.FormatInt(j.TimeLimit, 10)
		rec[13] = strconv.FormatInt(j.Priority, 10)
		rec[14] = strconv.Itoa(j.QOS)
		rec[15] = strconv.FormatBool(j.Interactive)
		rec[16] = strconv.Itoa(j.DependsOn)
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV header: %w", err)
	}
	if len(header) != len(csvHeader) {
		return nil, fmt.Errorf("trace: CSV header has %d fields, want %d", len(header), len(csvHeader))
	}
	t := &Trace{}
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: CSV line %d: %w", line, err)
		}
		line++
		j, err := parseCSVRecord(rec)
		if err != nil {
			return nil, fmt.Errorf("trace: CSV line %d: %w", line, err)
		}
		t.Jobs = append(t.Jobs, j)
	}
	return t, nil
}

// parseCSVRecord decodes one WriteCSV-format record into a Job.
func parseCSVRecord(rec []string) (Job, error) {
	if len(rec) != len(csvHeader) {
		return Job{}, fmt.Errorf("record has %d fields, want %d", len(rec), len(csvHeader))
	}
	var j Job
	var errs [16]error
	j.ID, errs[0] = strconv.Atoi(rec[0])
	j.User, errs[1] = strconv.Atoi(rec[1])
	j.Partition = rec[2]
	j.State = JobState(rec[3])
	j.Submit, errs[2] = strconv.ParseInt(rec[4], 10, 64)
	j.Eligible, errs[3] = strconv.ParseInt(rec[5], 10, 64)
	j.Start, errs[4] = strconv.ParseInt(rec[6], 10, 64)
	j.End, errs[5] = strconv.ParseInt(rec[7], 10, 64)
	j.ReqCPUs, errs[6] = strconv.Atoi(rec[8])
	j.ReqMemGB, errs[7] = strconv.ParseFloat(rec[9], 64)
	j.ReqNodes, errs[8] = strconv.Atoi(rec[10])
	j.ReqGPUs, errs[9] = strconv.Atoi(rec[11])
	j.TimeLimit, errs[10] = strconv.ParseInt(rec[12], 10, 64)
	j.Priority, errs[11] = strconv.ParseInt(rec[13], 10, 64)
	j.QOS, errs[12] = strconv.Atoi(rec[14])
	j.Interactive, errs[13] = strconv.ParseBool(rec[15])
	j.DependsOn, errs[14] = strconv.Atoi(rec[16])
	for _, e := range errs {
		if e != nil {
			return Job{}, e
		}
	}
	return j, nil
}

// WriteJSONL writes one JSON object per line.
func (t *Trace) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range t.Jobs {
		if err := enc.Encode(&t.Jobs[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a JSONL trace.
func ReadJSONL(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(r)
	t := &Trace{}
	for {
		var j Job
		if err := dec.Decode(&j); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: JSONL record %d: %w", len(t.Jobs)+1, err)
		}
		t.Jobs = append(t.Jobs, j)
	}
	return t, nil
}

// ReadFile reads a trace file in the format its extension names: .jsonl is
// ReadJSONL, .sacct and .txt are ReadSacct (real Slurm accounting dumps:
// sacct --parsable2 output), anything else ReadCSV.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".jsonl"):
		return ReadJSONL(f)
	case strings.HasSuffix(path, ".sacct"), strings.HasSuffix(path, ".txt"):
		return ReadSacct(f)
	default:
		return ReadCSV(f)
	}
}
