package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"
)

type opKind int

const (
	kindPredict opKind = iota // POST /predict (and GET /predict?job=) at a fixed instant
	kindBatch                 // POST /predict/batch of 16 at a fixed instant
	kindLiveMix               // one lifecycle step to /events, then POST /predict at the acknowledged clock
	kindIngest                // 64 lifecycle steps (256 events) to /events, WAL on disk
)

// workloadSpec is one traffic mix. Every workload boots its own daemon and
// warms it with a fixed number of operations. The untraced run then
// measures a closed loop for -seconds; the traced run measures a closed
// loop and a paced open loop for half of -seconds each.
type workloadSpec struct {
	name     string
	kind     opKind
	deep     bool
	wal      bool
	serial   bool          // one connection: each body's events refer to jobs the previous body submitted
	getEvery int           // every getEvery-th operation is GET /predict?job=<backlog job>; 0 = never
	warmup   int           // operations before timing starts
	oracle   int           // operations compared with the in-process oracle before timing
	rate     float64       // paced phase, operations per second
	limit    time.Duration // paced phase latency limit
}

// The paced rates sit at a fifth to a third of what the closed loop
// sustains on the two-core sandbox, so the open phase measures latency
// under load the daemon keeps up with even when the host slows it, not
// how its backlog grows: at 120 bodies a second a slow spell took
// ingest_catchup's single connection to 70 % busy and its paced median
// from 4 ms to 24 ms.
var workloads = []workloadSpec{
	{name: "predict_shallow", kind: kindPredict, warmup: 4000, oracle: 200, rate: 4000, limit: 2 * time.Millisecond},
	{name: "predict_deep", kind: kindPredict, deep: true, getEvery: 4, warmup: 600, oracle: 200, rate: 400, limit: 10 * time.Millisecond},
	{name: "batch_deep", kind: kindBatch, deep: true, warmup: 60, oracle: 13, rate: 40, limit: 50 * time.Millisecond},
	{name: "live_mix", kind: kindLiveMix, deep: true, warmup: 300, oracle: 200, rate: 150, limit: 20 * time.Millisecond},
	{name: "ingest_catchup", kind: kindIngest, deep: true, wal: true, serial: true, warmup: 100, oracle: 8, rate: 60, limit: 20 * time.Millisecond},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// runConfig is what every run of the benchmark shares.
type runConfig struct {
	seed      int64
	seconds   float64
	size      sizing
	buildDir  string // the daemon binary, bundles and WAL directories live here
	outDir    string // results.json and span files
	daemonBin string // "" runs the service behind an in-process listener (quick pass)
	conns     int
	setups    int // how many times an untraced run sets up; setup_s is their median
	samples   int // requests the traced pass samples per handler
	buildSecs float64
}

// workDir is this process's scratch directory: bundle and WAL directories.
func (cfg *runConfig) workDir() string {
	return filepath.Join(cfg.buildDir, fmt.Sprintf("run-%d", os.Getpid()))
}

// rig is one workload set up and warm: inputs, daemon, connections, and the
// operation each connection repeats.
type rig struct {
	wl      workloadSpec
	in      *inputs
	st      *state
	tgt     target
	walDir  string
	conns   []*conn
	ops     []op
	pending int          // pending_in_snapshot every static-state answer must report
	nextID  atomic.Int64 // request job IDs handed out
	warm    *phase
	gauges  [3]float64 // pending, running, history entries after warm-up
	setupS  float64    // what setUp took, the oracle's share left out
	checked int        // operations the oracle compared
}

// close stops the daemon and waits for it to end. Closing twice is harmless.
func (r *rig) close() error {
	for _, c := range r.conns {
		c.close()
	}
	r.conns = nil
	var err error
	if r.tgt != nil {
		err = r.tgt.stop()
		r.tgt = nil
	}
	if r.walDir != "" {
		_ = os.RemoveAll(r.walDir)
	}
	return err
}

// setUp derives the inputs from the seed, trains and saves the bundle,
// boots a daemon on it, loads the queue state through /events and warms
// the serving path. All of it is what setup_s times. With check set, the
// daemon's answers are compared with the oracle's once the state is
// loaded: before the warm-up, whose events on live state the oracle's
// engine would otherwise have to replay, and outside setup_s.
func setUp(cfg *runConfig, wl workloadSpec, check bool) (*rig, error) {
	r := &rig{wl: wl}
	if err := r.boot(cfg, check); err != nil {
		_ = r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) boot(cfg *runConfig, check bool) (err error) {
	t0 := time.Now()
	wl := r.wl
	work := cfg.workDir()
	if err = os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	if r.in, err = makeInputs(cfg.seed, cfg.size, work); err != nil {
		return err
	}
	pending, running := cfg.size.shallowPending, cfg.size.shallowRunning
	if wl.deep {
		pending, running = cfg.size.deepPending, cfg.size.deepRunning
	}
	if r.st, err = r.in.buildState(pending, running); err != nil {
		return err
	}
	r.pending = pending
	if wl.wal {
		r.walDir = filepath.Join(work, "wal")
		_ = os.RemoveAll(r.walDir)
	}
	if cfg.daemonBin != "" {
		r.tgt, err = startChild(cfg.daemonBin, r.in.bundlePath, r.walDir)
	} else {
		r.tgt, err = startLocal(r.in.bundlePath, r.walDir)
	}
	if err != nil {
		return err
	}
	conns := cfg.conns
	if wl.serial {
		conns = 1
	}
	for i := 0; i < conns; i++ {
		c, err := dial(r.tgt.addr())
		if err != nil {
			return err
		}
		r.conns = append(r.conns, c)
	}
	if err = r.loadState(); err != nil {
		return err
	}
	r.nextID.Store(requestIDLo)
	for i := range r.conns {
		r.ops = append(r.ops, r.newOp(i))
	}
	if check {
		t1 := time.Now()
		if r.checked, err = r.checkOracle(); err != nil {
			return err
		}
		t0 = t0.Add(time.Since(t1))
	}
	r.warm = closedLoop(r.conns, r.ops, 0, wl.warmup)
	r.setupS = time.Since(t0).Seconds()
	return nil
}

// loadState POSTs the state's event stream to /events in bodies of a few
// thousand events and checks every acknowledgement.
func (r *rig) loadState() error {
	const chunk = 4096
	lines := bytes.SplitAfter(r.st.jsonl, []byte{'\n'})
	for lo := 0; lo < len(lines); lo += chunk {
		hi := min(lo+chunk, len(lines))
		body := bytes.Join(lines[lo:hi], nil)
		n := bytes.Count(body, []byte{'\n'})
		if n == 0 {
			continue
		}
		status, reply, err := r.conns[0].do(httpPost("/events", body))
		if err != nil {
			return fmt.Errorf("load state: %w", err)
		}
		if _, ok := validEvents(status, reply, n); !ok {
			return fmt.Errorf("load state: HTTP %d: %s", status, reply)
		}
	}
	return nil
}

// eventsEncoder encodes lifecycle steps as one POST /events, reusing its
// buffers between calls.
type eventsEncoder struct{ body, req []byte }

func (e *eventsEncoder) encode(life *lifecycle, steps int) (req, body []byte) {
	e.body = e.body[:0]
	for s := 0; s < steps; s++ {
		e.body = life.appendStep(e.body)
	}
	e.req = append(e.req[:0], "POST /events HTTP/1.1\r\nHost: troutd\r\nContent-Type: application/x-ndjson\r\nContent-Length: "...)
	e.req = strconv.AppendInt(e.req, int64(len(e.body)), 10)
	e.req = append(e.req, "\r\n\r\n"...)
	e.req = append(e.req, e.body...)
	return e.req, e.body
}

// newOp builds the operation connection i repeats. Each connection owns
// its copies of the pre-encoded requests, because IDs and instants are
// patched into them in place. An operation times only its own socket
// round trips; encoding the next request happens before its clock starts.
func (r *rig) newOp(i int) op {
	stride := len(r.conns)
	switch r.wl.kind {
	case kindBatch:
		batches := r.in.batchRequests(r.st.now)
		k := i
		return func(c *conn) (time.Duration, bool) {
			b := &batches[k%len(batches)]
			k += stride
			t0 := time.Now()
			status, body, err := c.do(b.raw)
			return time.Since(t0), err == nil && validPredictions(status, body, batchJobs, r.pending)
		}
	case kindIngest:
		var enc eventsEncoder
		return func(c *conn) (time.Duration, bool) {
			req, _ := enc.encode(r.st.life, ingestSteps)
			t0 := time.Now()
			status, body, err := c.do(req)
			dt := time.Since(t0)
			if err != nil {
				return dt, false
			}
			_, ok := validEvents(status, body, ingestSteps*stepEvents)
			return dt, ok
		}
	}
	reqs := r.in.predictRequests(r.st.now)
	var gets []request
	if r.wl.getEvery > 0 {
		gets = r.in.getRequests(r.st, len(reqs))
	}
	k, n := i, 0
	var enc eventsEncoder
	return func(c *conn) (time.Duration, bool) {
		n++
		k += stride
		if len(gets) > 0 && n%r.wl.getEvery == 0 {
			t0 := time.Now()
			status, body, err := c.do(gets[k%len(gets)].raw)
			return time.Since(t0), err == nil && validPredictions(status, body, 1, r.pending)
		}
		q := &reqs[k%len(reqs)]
		id := int(r.nextID.Add(1))
		if r.wl.kind != kindLiveMix {
			q.patch(r.st.now, id)
			t0 := time.Now()
			status, body, err := c.do(q.raw)
			return time.Since(t0), err == nil && validPredictions(status, body, 1, r.pending)
		}
		req, _ := enc.encode(r.st.life, 1)
		t0 := time.Now()
		status, body, err := c.do(req)
		if err != nil {
			return time.Since(t0), false
		}
		now, ok := validEvents(status, body, stepEvents)
		if !ok {
			return time.Since(t0), false
		}
		// The other connection's step may be half applied when this
		// snapshot is taken, so the depth is not checked per answer; the
		// stationarity guard checks it for the run.
		q.patch(now, id)
		status, body, err = c.do(q.raw)
		return time.Since(t0), err == nil && validPredictions(status, body, 1, -1)
	}
}

// checkOracle compares the daemon's answers with the in-process oracle's
// on connection 0, on the state as loaded. Operations on live state
// advance both the daemon and the oracle's engine by the same events in
// the same order. It returns how many operations it compared.
func (r *rig) checkOracle() (int, error) {
	orc, err := newOracle(r.in.bundlePath, r.st)
	if err != nil {
		return 0, err
	}
	if got := orc.eng.Stats().Pending; got != r.pending {
		return 0, fmt.Errorf("oracle engine holds %d pending jobs, state was built for %d", got, r.pending)
	}
	c := r.conns[0]
	var enc eventsEncoder
	// advance sends lifecycle steps to both sides and insists that the
	// daemon acknowledges the clock the oracle's engine reached.
	advance := func(steps int) (int64, error) {
		req, body := enc.encode(r.st.life, steps)
		if err := orc.apply(body, steps*stepEvents); err != nil {
			return 0, err
		}
		status, reply, err := c.do(req)
		if err != nil {
			return 0, err
		}
		if ack, ok := validEvents(status, reply, steps*stepEvents); !ok || ack != orc.eng.Now() {
			return 0, fmt.Errorf("HTTP %d %s, oracle clock %d", status, reply, orc.eng.Now())
		}
		return orc.eng.Now(), nil
	}
	// predict sends q at the instant with a fresh ID and compares.
	predict := func(q *request, at int64) error {
		q.job.ID = int(r.nextID.Add(1))
		q.patch(at, q.job.ID)
		want, err := orc.expect(q.job, at)
		if err != nil {
			return err
		}
		status, body, err := c.do(q.raw)
		if err != nil {
			return err
		}
		return checkSingle(status, body, want)
	}
	reqs := r.in.predictRequests(r.st.now)
	var gets []request
	if r.wl.getEvery > 0 {
		gets = r.in.getRequests(r.st, len(reqs))
	}
	var batches []batchRequest
	if r.wl.kind == kindBatch {
		batches = r.in.batchRequests(r.st.now)
	}
	for n := 0; n < r.wl.oracle; n++ {
		switch {
		case r.wl.kind == kindBatch:
			b := &batches[n%len(batches)]
			want := make([]answer, len(b.jobs))
			for i, j := range b.jobs {
				if want[i], err = orc.expect(j, r.st.now); err != nil {
					return n, err
				}
			}
			var status int
			var body []byte
			if status, body, err = c.do(b.raw); err == nil {
				err = checkBatch(status, body, want)
			}
		case r.wl.kind == kindIngest:
			_, err = advance(ingestSteps)
		case r.wl.kind == kindLiveMix:
			var at int64
			if at, err = advance(1); err == nil {
				err = predict(&reqs[n%len(reqs)], at)
			}
		case len(gets) > 0 && n%r.wl.getEvery == 0:
			g := &gets[n%len(gets)]
			var want answer
			if want, err = orc.expectJob(g.get); err == nil {
				var status int
				var body []byte
				if status, body, err = c.do(g.raw); err == nil {
					err = checkSingle(status, body, want)
				}
			}
		default:
			err = predict(&reqs[n%len(reqs)], r.st.now)
		}
		if err != nil {
			return n, fmt.Errorf("oracle: operation %d: %w", n, err)
		}
	}
	if r.wl.kind == kindIngest {
		// One prediction on the ingested state shows both engines agree.
		if err := predict(&reqs[0], orc.eng.Now()); err != nil {
			return r.wl.oracle, fmt.Errorf("oracle: after ingest: %w", err)
		}
		return r.wl.oracle + 1, nil
	}
	return r.wl.oracle, nil
}

// queueGauges reads pending, running and history sizes off /metrics.
func queueGauges(m map[string]float64) [3]float64 {
	return [3]float64{
		sumPrefix(m, "trout_queue_pending"),
		sumPrefix(m, "trout_queue_running"),
		m["trout_livestate_history_entries"],
	}
}

// stationary reports whether the lifecycle stream left queue depth and
// history size where they were: each within 5 % of its value after warm-up.
func stationary(before, after [3]float64) error {
	names := [3]string{"pending", "running", "history"}
	for i := range before {
		if d := after[i] - before[i]; d > 0.05*before[i] || -d > 0.05*before[i] {
			return fmt.Errorf("state drifted: %s %v after warm-up, %v at the end", names[i], before[i], after[i])
		}
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples"` // sample count behind each percentile
	Invalid   []string          `json:"invalid,omitempty"`
	Ledger    []ledgerTerm      `json:"ledger,omitempty"`
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func newResult(cfg *runConfig, wl workloadSpec, traced bool) *result {
	return &result{Workload: wl.name, Seed: cfg.seed, Traced: traced, Correct: true, Metrics: map[string]metric{}, Samples: map[string]int{}}
}

func (res *result) set(name string, v float64, unit string) {
	res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (res *result) count(p *phase) {
	res.Attempted += p.sent
	res.Failed += p.failed
}

func (res *result) invalid(format string, args ...any) {
	res.Correct = false
	res.Invalid = append(res.Invalid, fmt.Sprintf(format, args...))
}

// measured is what the socket phases of a run observed, shared by the
// untraced and the traced run.
type measured struct {
	closed, paced *phase  // paced is nil when the run has no open phase
	cpuSecs       float64 // daemon CPU over the closed phase
	before, after map[string]float64
	wall          time.Duration // both phases
}

// measure runs the closed loop for closedFor, then, unless pacedFor is
// zero, the paced loop at the workload's rate.
func (r *rig) measure(closedFor, pacedFor time.Duration, res *result) (*measured, error) {
	m := &measured{}
	var err error
	if m.before, err = scrape(r.tgt.addr()); err != nil {
		return nil, err
	}
	r.gauges = queueGauges(m.before)
	t0 := time.Now()
	cpu0, err := cpuSeconds(r.tgt.pid())
	if err != nil {
		return nil, err
	}
	m.closed = closedLoop(r.conns, r.ops, closedFor, 0)
	cpu1, err := cpuSeconds(r.tgt.pid())
	if err != nil {
		return nil, err
	}
	m.cpuSecs = cpu1 - cpu0
	phases := []*phase{m.closed}
	if pacedFor > 0 {
		m.paced = pacedLoop(r.conns, r.ops, pacedFor, r.wl.rate)
		phases = append(phases, m.paced)
	}
	m.wall = time.Since(t0)
	if m.after, err = scrape(r.tgt.addr()); err != nil {
		return nil, err
	}
	for _, p := range phases {
		res.count(p)
		if len(p.lat) == 0 {
			return nil, fmt.Errorf("%s: no valid operation in a timed phase (%d of %d failed)", r.wl.name, res.Failed, res.Attempted)
		}
	}
	if res.Failed > 0 {
		res.invalid("%d of %d operations failed or were answered wrongly", res.Failed, res.Attempted)
	}
	return m, nil
}

// runUntraced is the end-to-end run: set up cfg.setups times (the daemon
// of the last one is measured), check the oracle, then time the closed loop.
func runUntraced(cfg *runConfig, wl workloadSpec) (*result, error) {
	res := newResult(cfg, wl, false)
	var r *rig
	var setups []float64
	for k := 0; k < cfg.setups; k++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if r, err = setUp(cfg, wl, k == cfg.setups-1); err != nil {
			return nil, err
		}
		setups = append(setups, r.setupS)
		res.count(r.warm)
	}
	defer r.close()
	res.Attempted += r.checked
	m, err := r.measure(seconds(cfg.seconds), 0, res)
	if err != nil {
		return nil, err
	}
	if wl.kind == kindLiveMix || wl.kind == kindIngest {
		if err := stationary(r.gauges, queueGauges(m.after)); err != nil {
			res.invalid("%v", err)
		}
	}
	lat := micros(m.closed.lat)
	if cfg.daemonBin != "" && len(lat) < 1000 {
		res.invalid("p95_us rests on %d samples, needs 1000", len(lat))
	}
	rss, err := peakRSSMB(r.tgt.pid())
	if err != nil {
		return nil, err
	}
	res.set("setup_s", median(setups), "s")
	res.set("ops_per_s", float64(len(lat))/m.closed.elapsed.Seconds(), "1/s")
	res.set("p50_us", quantile(lat, 0.50), "us")
	res.set("p95_us", quantile(lat, 0.95), "us")
	res.set("cpu_us_per_op", m.cpuSecs*1e6/float64(len(lat)), "us")
	res.set("rss_mb", rss, "MB")
	res.Samples["setup_s"] = len(setups)
	res.Samples["p50_us"], res.Samples["p95_us"] = len(lat), len(lat)
	return res, nil
}
