package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	trout "repro"
	"repro/internal/livestate"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sizing fixes every input dimension the serving cost depends on, so that
// a seed changes which jobs, users and model the daemon sees but not how
// much work a request is. Queue depth left to the simulator swings 30×
// between seeds at one utilisation, which no bound could absorb.
type sizing struct {
	traceJobs      int // simulated trace the model trains on (first half) and requests are drawn from (second half)
	deepPending    int // cluster-wide pending jobs at the deep state, in the paper's partition mix
	deepRunning    int
	shallowPending int
	shallowRunning int
	historySteps   int // lifecycle steps replayed before the state instant; together they span the 24 h history window
	requests       int // distinct request specs cycled through
	batches        int // distinct /predict/batch bodies
}

var fullSizing = sizing{
	traceJobs: 12000, deepPending: 1900, deepRunning: 120,
	shallowPending: churnDepth, shallowRunning: churnDepth, historySteps: 1440,
	requests: 512, batches: 64,
}

var quickSizing = sizing{
	traceJobs: 3000, deepPending: 300, deepRunning: 48,
	shallowPending: churnDepth, shallowRunning: churnDepth, historySteps: 200,
	requests: 64, batches: 8,
}

// stepSeconds is how far one lifecycle step advances the clock: the steps
// replayed into a state fill the history window exactly, so each further
// step ages one submission out as it adds one.
func (s sizing) stepSeconds() int64 { return retentionSec / int64(s.historySteps) }

const (
	churnDepth   = 16         // synthetic jobs pending, and running, at any instant
	stepEvents   = 4          // submit, eligible, start, end
	requestIDLo  = 10_000_000 // request job IDs: 8 digits, patched in place
	churnIDLo    = 20_000_000 // lifecycle job IDs: 8 digits
	batchJobs    = 16
	ingestSteps  = 64 // lifecycle steps per ingest_catchup body: 256 events
	retentionSec = 86400
)

// churnPartitions is the partition of lifecycle job n, by n modulo its
// length: 11/16 shared, the paper's 69 %. churnDepth is a multiple of the
// length, so every window of churnDepth consecutive jobs has the same
// per-partition counts and a step leaves each partition's depth unchanged.
var churnPartitions = [...]string{
	"shared", "shared", "wholenode", "shared", "shared", "gpu", "shared", "shared",
	"wholenode", "shared", "shared", "highmem", "shared", "shared", "debug", "shared",
}

// inputs is everything one set-up derives from the seed before a daemon
// exists: the trained bundle on disk and the pool of unseen job specs.
type inputs struct {
	seed       int64
	size       sizing
	bundlePath string
	pool       map[string][]trace.Job // post-cut trace jobs by partition
	parts      []string               // partitions with a non-empty pool, sorted
	mix        map[string]float64
	cut        int64 // the instant the training half ends
	buildSecs  float64
	trainSecs  float64
}

// makeInputs simulates the trace, trains a bundle on its first half with
// the shipped defaults (epochs capped so set-up stays in seconds) and
// saves it where the daemon will load it.
func makeInputs(seed int64, size sizing, dir string) (*inputs, error) {
	p := trout.DefaultPipeline(size.traceJobs, seed)
	tr, cluster, err := p.GenerateTrace()
	if err != nil {
		return nil, fmt.Errorf("generate trace: %w", err)
	}
	half := len(tr.Jobs) / 2
	t0 := time.Now()
	ds, err := p.BuildDataset(&trace.Trace{Jobs: tr.Jobs[:half]}, cluster)
	if err != nil {
		return nil, fmt.Errorf("build dataset: %w", err)
	}
	buildSecs := time.Since(t0).Seconds()
	cfg := p.Model
	cfg.Seed = seed
	cfg.Classifier.Epochs = 5
	cfg.Regressor.Epochs = 8
	t0 = time.Now()
	m, _, err := trout.TrainHoldout(ds, cfg, p.TestFraction)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	trainSecs := time.Since(t0).Seconds()
	b, err := trout.NewBundle(m, ds, cluster)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		seed: seed, size: size,
		bundlePath: filepath.Join(dir, "trout.bundle"),
		pool:       map[string][]trace.Job{},
		mix:        workload.DefaultConfig(size.traceJobs, seed).PartitionMix,
		cut:        tr.Jobs[half].Submit,
		buildSecs:  buildSecs, trainSecs: trainSecs,
	}
	if err := b.SaveFile(in.bundlePath); err != nil {
		return nil, fmt.Errorf("save bundle: %w", err)
	}
	for _, j := range tr.Jobs[half:] {
		in.pool[j.Partition] = append(in.pool[j.Partition], j)
	}
	for name := range in.pool {
		in.parts = append(in.parts, name)
	}
	sort.Strings(in.parts)
	if len(in.pool["shared"]) == 0 {
		return nil, fmt.Errorf("trace has no post-cut shared jobs")
	}
	return in, nil
}

// spec draws a job spec of the given partition from the unseen half of the
// trace. A partition the trace never used falls back to shared.
func (in *inputs) spec(rng *rand.Rand, partition string, id int) trace.Job {
	jobs := in.pool[partition]
	if len(jobs) == 0 {
		jobs = in.pool["shared"]
	}
	j := jobs[rng.Intn(len(jobs))]
	return trace.Job{
		ID: id, User: j.User, Partition: j.Partition,
		ReqCPUs: j.ReqCPUs, ReqMemGB: j.ReqMemGB, ReqNodes: j.ReqNodes, ReqGPUs: j.ReqGPUs,
		TimeLimit: j.TimeLimit, Priority: j.Priority, QOS: j.QOS, Interactive: j.Interactive,
	}
}

// quota splits total over the partitions in the workload's mix by largest
// remainder, so the same total always gives the same per-partition counts.
func (in *inputs) quota(total int) []partCount {
	var sum float64
	for _, name := range in.parts {
		sum += in.mix[name]
	}
	out := make([]partCount, len(in.parts))
	rem := make([]float64, len(in.parts))
	left := total
	for i, name := range in.parts {
		exact := float64(total) * in.mix[name] / sum
		out[i] = partCount{name, int(exact)}
		rem[i] = exact - float64(out[i].n)
		left -= out[i].n
	}
	order := make([]int, len(in.parts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for k := 0; k < left; k++ {
		out[order[k%len(order)]].n++
	}
	return out
}

type partCount struct {
	name string
	n    int
}

// state is one queue state as the JSONL event stream that builds it, plus
// the generator that continues the stream.
type state struct {
	jsonl      []byte // POSTed to /events, and applied line by line to in-process engines
	events     int
	now        int64 // engine clock once jsonl is applied
	pendingIDs []int // static backlog jobs, for GET /predict?job=
	life       *lifecycle
}

// buildState lays out a queue of fixed size: a static backlog and running
// set submitted more than a day before the state instant (so they have
// left the 24 h history ring by then), followed by historySteps lifecycle
// steps that leave churnDepth jobs pending, churnDepth running and one
// finished submission per minute of history. Continuing the lifecycle
// therefore changes neither depth nor history size.
func (in *inputs) buildState(pending, running int) (*state, error) {
	rng := rand.New(rand.NewSource(in.seed*7919 + int64(pending)))
	steps := in.size.historySteps
	start := in.cut               // clock of lifecycle step 0
	old := start - 2*retentionSec // static jobs are submitted from here, one a second
	var evs []livestate.Event
	st := &state{}
	id := 0
	add := func(part string, run bool) {
		id++
		j := in.spec(rng, part, id)
		t := old + int64(id)
		evs = append(evs,
			livestate.Event{Type: livestate.EventSubmit, Time: t, Job: &j},
			livestate.Event{Type: livestate.EventEligible, Time: t, JobID: id})
		if run {
			evs = append(evs, livestate.Event{Type: livestate.EventStart, Time: t + 1, JobID: id})
		} else {
			st.pendingIDs = append(st.pendingIDs, id)
		}
	}
	for _, pc := range in.quota(pending - churnDepth) {
		for k := 0; k < pc.n; k++ {
			add(pc.name, false)
		}
	}
	for _, pc := range in.quota(running - churnDepth) {
		for k := 0; k < pc.n; k++ {
			add(pc.name, true)
		}
	}
	if id >= retentionSec {
		return nil, fmt.Errorf("state of %d static jobs does not fit before the history window", id)
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].Time < evs[b].Time })
	var buf bytes.Buffer
	if err := livestate.WriteEvents(&buf, evs); err != nil {
		return nil, err
	}
	st.life = newLifecycle(in, start)
	st.jsonl = buf.Bytes()
	for s := 0; s < steps; s++ {
		st.jsonl = st.life.appendStep(st.jsonl)
	}
	st.events = bytes.Count(st.jsonl, []byte{'\n'})
	st.now = st.life.clock()
	return st, nil
}

// lifecycle generates the synthetic scheduler stream: step n submits and
// makes eligible job n, starts job n-churnDepth and ends job
// n-2*churnDepth, all at clock start+n*stepSec. Steps are handed out
// under a mutex, so connections sharing one generator never touch the same
// job; the jobs a step starts and ends were submitted churnDepth steps
// ago, long acknowledged.
type lifecycle struct {
	mu      sync.Mutex
	n       int
	start   int64
	stepSec int64
	specs   []trace.Job // spec of job n is specs[n % len(specs)], whose partition is churnPartitions[n % 16]
}

func newLifecycle(in *inputs, start int64) *lifecycle {
	rng := rand.New(rand.NewSource(in.seed*104729 + 1))
	l := &lifecycle{start: start, stepSec: in.size.stepSeconds(), specs: make([]trace.Job, 16*len(churnPartitions))}
	for i := range l.specs {
		l.specs[i] = in.spec(rng, churnPartitions[i%len(churnPartitions)], 0)
	}
	return l
}

// rewind returns a generator with the same job specs whose next step is
// step n: the stream as it continues from a state built with n steps.
func (l *lifecycle) rewind(n int) *lifecycle {
	return &lifecycle{n: n, start: l.start, stepSec: l.stepSec, specs: l.specs}
}

// clock is the time of the last step handed out.
func (l *lifecycle) clock() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.start + int64(l.n-1)*l.stepSec
}

// appendStep appends one step's JSONL events to dst.
func (l *lifecycle) appendStep(dst []byte) []byte {
	l.mu.Lock()
	n := l.n
	l.n++
	l.mu.Unlock()
	t := l.start + int64(n)*l.stepSec
	j := &l.specs[n%len(l.specs)]
	id := churnIDLo + n
	dst = append(dst, `{"type":"submit","time":`...)
	dst = strconv.AppendInt(dst, t, 10)
	dst = append(dst, `,"job":{"id":`...)
	dst = strconv.AppendInt(dst, int64(id), 10)
	dst = appendJobFields(dst, j)
	dst = append(dst, "}}\n"...)
	dst = appendRef(dst, "eligible", t, id)
	if n >= churnDepth {
		dst = appendRef(dst, "start", t, id-churnDepth)
	}
	if n >= 2*churnDepth {
		dst = appendRef(dst, "end", t, id-2*churnDepth)
	}
	return dst
}

func appendRef(dst []byte, typ string, t int64, id int) []byte {
	dst = append(dst, `{"type":"`...)
	dst = append(dst, typ...)
	dst = append(dst, `","time":`...)
	dst = strconv.AppendInt(dst, t, 10)
	dst = append(dst, `,"job_id":`...)
	dst = strconv.AppendInt(dst, int64(id), 10)
	return append(dst, "}\n"...)
}

// appendJobFields appends the request-time fields of a job spec, each
// preceded by a comma, in the trace.Job JSON names.
func appendJobFields(dst []byte, j *trace.Job) []byte {
	dst = append(dst, `,"user":`...)
	dst = strconv.AppendInt(dst, int64(j.User), 10)
	dst = append(dst, `,"partition":"`...)
	dst = append(dst, j.Partition...)
	dst = append(dst, `","req_cpus":`...)
	dst = strconv.AppendInt(dst, int64(j.ReqCPUs), 10)
	dst = append(dst, `,"req_mem_gb":`...)
	dst = strconv.AppendFloat(dst, j.ReqMemGB, 'g', -1, 64)
	dst = append(dst, `,"req_nodes":`...)
	dst = strconv.AppendInt(dst, int64(j.ReqNodes), 10)
	dst = append(dst, `,"req_gpus":`...)
	dst = strconv.AppendInt(dst, int64(j.ReqGPUs), 10)
	dst = append(dst, `,"time_limit":`...)
	dst = strconv.AppendInt(dst, j.TimeLimit, 10)
	dst = append(dst, `,"priority":`...)
	dst = strconv.AppendInt(dst, j.Priority, 10)
	dst = append(dst, `,"qos":`...)
	dst = strconv.AppendInt(dst, int64(j.QOS), 10)
	return dst
}

// request is one pre-encoded HTTP/1.1 request. The prediction instant and
// the job ID are fixed-width digit runs patched in place, so a connection
// reuses the bytes with a fresh ID (and, on live state, the acknowledged
// clock) without re-encoding.
type request struct {
	raw   []byte
	atOff int // offset of the 10-digit "at" value; -1 if none
	idOff int // offset of the 8-digit job id; -1 if none
	job   trace.Job
	get   int // job ID for GET /predict?job=, else 0
}

func (r *request) patch(at int64, id int) {
	if r.atOff >= 0 {
		putDigits(r.raw[r.atOff:r.atOff+10], at)
	}
	if r.idOff >= 0 {
		putDigits(r.raw[r.idOff:r.idOff+8], int64(id))
	}
}

func putDigits(dst []byte, v int64) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = byte('0' + v%10)
		v /= 10
	}
}

func httpPost(path string, body []byte) []byte {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: troutd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
	return append([]byte(head), body...)
}

// predictRequests samples distinct job specs in the workload's partition
// mix and encodes each as POST /predict at the given instant.
func (in *inputs) predictRequests(at int64) []request {
	rng := rand.New(rand.NewSource(in.seed*15485863 + 2))
	var reqs []request
	for _, pc := range in.quota(in.size.requests) {
		for k := 0; k < pc.n; k++ {
			j := in.spec(rng, pc.name, requestIDLo)
			body := []byte(`{"at":`)
			atOff := len(body)
			body = strconv.AppendInt(body, at, 10)
			body = append(body, `,"job":{"id":`...)
			idOff := len(body)
			body = strconv.AppendInt(body, requestIDLo, 10)
			body = appendJobFields(body, &j)
			body = append(body, "}}"...)
			raw := httpPost("/predict", body)
			shift := len(raw) - len(body)
			reqs = append(reqs, request{raw: raw, atOff: atOff + shift, idOff: idOff + shift, job: j})
		}
	}
	rng.Shuffle(len(reqs), func(a, b int) { reqs[a], reqs[b] = reqs[b], reqs[a] })
	return reqs
}

// getRequests encodes GET /predict?job= for backlog jobs, sampled with the
// same seeded generator so the partition mix follows the backlog's.
func (in *inputs) getRequests(st *state, n int) []request {
	rng := rand.New(rand.NewSource(in.seed*32452843 + 3))
	reqs := make([]request, n)
	for i := range reqs {
		id := st.pendingIDs[rng.Intn(len(st.pendingIDs))]
		reqs[i] = request{
			raw:   []byte(fmt.Sprintf("GET /predict?job=%d HTTP/1.1\r\nHost: troutd\r\n\r\n", id)),
			atOff: -1, idOff: -1, get: id,
		}
	}
	return reqs
}

// batchRequest is one POST /predict/batch: a user's what-if grid of four
// partitions by four time limits. The jobs carry no ID: they are
// hypothetical, and the daemon keeps no record of unidentified jobs.
type batchRequest struct {
	raw  []byte
	jobs []trace.Job
}

func (in *inputs) batchRequests(at int64) []batchRequest {
	rng := rand.New(rand.NewSource(in.seed*49979687 + 4))
	grid := []string{"shared", "wholenode", "highmem", "gpu"}
	limits := []int64{3600, 4 * 3600, 12 * 3600, 24 * 3600}
	out := make([]batchRequest, in.size.batches)
	for i := range out {
		base := in.spec(rng, "shared", 0)
		body := []byte(`{"at":`)
		body = strconv.AppendInt(body, at, 10)
		body = append(body, `,"jobs":[`...)
		for _, part := range grid {
			if len(in.pool[part]) == 0 {
				part = "shared"
			}
			for _, lim := range limits {
				j := base
				j.Partition, j.TimeLimit = part, lim
				if len(out[i].jobs) > 0 {
					body = append(body, ',')
				}
				body = append(body, `{"id":0`...)
				body = appendJobFields(body, &j)
				body = append(body, '}')
				out[i].jobs = append(out[i].jobs, j)
			}
		}
		body = append(body, "]}"...)
		out[i].raw = httpPost("/predict/batch", body)
	}
	return out
}
