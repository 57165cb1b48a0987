package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	trout "repro"
	"repro/internal/features"
	"repro/internal/livestate"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/scaling"
	"repro/internal/trace"
)

// span is one timed interval of the traced pass. Times are nanoseconds
// since the pass began; Parent is the ID of the enclosing span (0 for a
// root) and Request numbers the sampled request the span belongs to (-1
// for the block timings of nanosecond-scale calls, which belong to none).
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// recorder keeps spans in memory until the pass ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func (rec *recorder) begin(name string, parent, request int) int {
	rec.spans = append(rec.spans, span{
		Name: name, ID: len(rec.spans) + 1, Parent: parent, Request: request,
		Start: int64(time.Since(rec.t0)),
	})
	return len(rec.spans)
}

func (rec *recorder) end(id int) { rec.spans[id-1].End = int64(time.Since(rec.t0)) }

// us is a finished span's duration in microseconds.
func (rec *recorder) us(id int) float64 {
	return float64(rec.spans[id-1].End-rec.spans[id-1].Start) / 1e3
}

// timed records fn as a child span.
func (rec *recorder) timed(name string, parent, request int, fn func()) {
	id := rec.begin(name, parent, request)
	fn()
	rec.end(id)
}

// medianUs is the median duration, in microseconds, of the spans with the
// given name.
func (rec *recorder) medianUs(name string) float64 {
	var d []float64
	for i := range rec.spans {
		if rec.spans[i].Name == name {
			d = append(d, rec.us(i+1))
		}
	}
	return median(d)
}

func (rec *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range rec.spans {
		if err := enc.Encode(&rec.spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// blockNs times fn in blocks of per calls, one span a block, and returns
// the median nanoseconds per call: a clock read costs as much as the
// cheapest layers do.
func (rec *recorder) blockNs(name string, blocks, per int, fn func(i int)) float64 {
	ns := make([]float64, 0, blocks)
	for b := 0; b < blocks; b++ {
		id := rec.begin(name, 0, -1)
		for k := 0; k < per; k++ {
			fn(b*per + k)
		}
		rec.end(id)
		ns = append(ns, rec.us(id)*1e3/float64(per))
	}
	return median(ns)
}

// respWriter is a reusable in-memory http.ResponseWriter, so that handler
// timings and allocation counts are the handler's and not a recorder's.
type respWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *respWriter) Header() http.Header { return w.h }
func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *respWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// serve calls the handler in process the way the server would: a fresh
// request object per call, the pre-encoded bytes as its body.
func serve(h http.Handler, w *respWriter, method, path string, body []byte) (int, []byte) {
	for k := range w.h {
		delete(w.h, k)
	}
	w.code, w.body = 0, w.body[:0]
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // the paths are literals
	}
	req.RemoteAddr = "127.0.0.1:1"
	h.ServeHTTP(w, req)
	return w.code, w.body
}

// httpBody is the body of a pre-encoded HTTP request.
func httpBody(raw []byte) []byte {
	return raw[bytes.Index(raw, []byte("\r\n\r\n"))+4:]
}

// inProcess is a Service wired like the daemon, holding a queue state.
type inProcess struct {
	svc *trout.Service
	h   http.Handler
	w   *respWriter
}

func newInProcess(in *inputs, st *state, walDir string) (*inProcess, error) {
	svc, err := newService(in.bundlePath, walDir)
	if err != nil {
		return nil, err
	}
	p := &inProcess{svc: svc, h: svc.Handler(), w: &respWriter{h: http.Header{}}}
	status, body := serve(p.h, p.w, http.MethodPost, "/events", st.jsonl)
	if _, ok := validEvents(status, body, st.events); !ok {
		return nil, fmt.Errorf("in-process state load: HTTP %d: %s", status, body)
	}
	return p, nil
}

// mallocsPer is the heap allocations per call of fn over n calls.
func mallocsPer(n int, fn func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// ledgerTerm is one line of a workload's latency ledger.
type ledgerTerm struct {
	Name  string  `json:"name"`
	Us    float64 `json:"us"`
	Share float64 `json:"share"`
}

// layerPass measures, in this process, the calls into each layer's public
// functions at one workload's queue state. Its sections run in order and
// leave what later ones need in the fields below.
type layerPass struct {
	cfg *runConfig
	wl  workloadSpec
	in  *inputs
	st  *state
	rec *recorder
	res *result
	dir string // scratch for WAL directories

	b           *trout.Bundle
	static      *inProcess // service holding the state as loaded; its snapshot cache stays warm
	reqs        []request
	rows        [][]float64 // one feature row per sampled request
	walked      float64     // same-partition jobs SnapshotRow walks, mean per request
	batchRowsUs []float64   // per sampled batch, the time of its 16 SnapshotRow calls
}

// Nanosecond-scale calls are timed in blocks of this many.
const blockCalls = 64

func (lp *layerPass) blocks() int { return max(lp.cfg.samples/blockCalls, 4) }

func (lp *layerPass) set(name string, v float64, unit string) { lp.res.set(name, v, unit) }

// run fills lp.res with every in-process per-layer metric and returns the
// handler time and the child spans that make up this workload's ledger.
func (lp *layerPass) run() (float64, []ledgerTerm, error) {
	for _, section := range []func() error{lp.predictPath, lp.batchPath, lp.smallCalls, lp.livePath, lp.ingestPath, lp.writePath} {
		if err := section(); err != nil {
			return 0, nil, err
		}
	}
	handlerUs, children := lp.ledger()
	return handlerUs, children, nil
}

// predictPath loads the bundle and the static state, then samples POST
// /predict on the cached-snapshot path: the handler, and the layer calls
// on its path replayed with the same inputs.
func (lp *layerPass) predictPath() error {
	n, rec := lp.cfg.samples, lp.rec
	t0 := time.Now()
	b, err := trout.LoadBundleFile(lp.in.bundlePath)
	if err != nil {
		return err
	}
	lp.set("trout.bundle_load_ms", time.Since(t0).Seconds()*1e3, "ms")
	if !b.EnableFastInference() {
		return fmt.Errorf("bundle does not compile onto the float32 path")
	}
	lp.b = b
	lp.set("features.build_s", lp.in.buildSecs, "s")
	lp.set("core.train_s", lp.in.trainSecs, "s")

	if lp.static, err = newInProcess(lp.in, lp.st, ""); err != nil {
		return err
	}
	eng := lp.static.svc.LiveStore().Engine()
	at := lp.st.now
	lp.reqs = lp.in.predictRequests(at)
	predict := func(i int) {
		q := &lp.reqs[i%len(lp.reqs)]
		q.patch(at, requestIDLo+i)
		if status, body := serve(lp.static.h, lp.static.w, http.MethodPost, "/predict", httpBody(q.raw)); !validPredictions(status, body, 1, -1) {
			err = fmt.Errorf("in-process /predict: HTTP %d: %s", status, body)
		}
	}
	for i := 0; i < 50; i++ {
		predict(i)
	}
	plain := make([]float64, n)
	for i := range plain {
		t := time.Now()
		predict(i)
		plain[i] = float64(time.Since(t)) / 1e3
	}
	lp.set("trout.handler_allocs", mallocsPer(n, predict), "count")

	// What only a cache miss runs is sampled in a loop of its own below,
	// because its garbage (a copy of every queued job per call) would
	// otherwise slow the handler calls it sits between.
	pending, running, ver := eng.PendingRunning(at)
	lp.set("livestate.snapshot_jobs", float64(len(pending)+len(running)), "count")
	var walked, long float64
	lp.rows = make([][]float64, n)
	for i := 0; i < n && err == nil; i++ {
		j := lp.reqs[i%len(lp.reqs)].job
		j.ID, j.Submit, j.Eligible = requestIDLo+i, at, at
		hist, _ := eng.UserHistoryChecked(j.User, at, ver)
		snap := &trout.Snapshot{Now: at, Target: j, Pending: pending, Running: running, History: hist}
		root := rec.begin("request", 0, i)
		rec.timed("trout.handler", root, i, func() { predict(i) })
		layers := rec.begin("layers", root, i)
		var rowErr error
		rec.timed("features.snapshot_row", layers, i, func() { lp.rows[i], rowErr = features.SnapshotRow(snap, &b.Cluster, b.Runtime) })
		if rowErr != nil {
			return rowErr
		}
		var pred trout.Prediction
		rec.timed("core.predict", layers, i, func() { pred = b.Model.Predict(lp.rows[i]) })
		rec.end(layers)
		rec.end(root)
		if pred.Long {
			long++
		}
		for _, queue := range [][]trace.Job{pending, running} {
			for k := range queue {
				if queue[k].Partition == j.Partition {
					walked++
				}
			}
		}
	}
	for i := 0; i < n && err == nil; i++ {
		j := lp.reqs[i%len(lp.reqs)].job
		j.ID, j.Submit, j.Eligible = requestIDLo+i, at, at
		root := rec.begin("snapshot", 0, i)
		snap := &trout.Snapshot{Now: at, Target: j}
		rec.timed("livestate.pending_running", root, i, func() { snap.Pending, snap.Running, ver = eng.PendingRunning(at) })
		rec.timed("livestate.user_history", root, i, func() { snap.History, _ = eng.UserHistoryChecked(j.User, at, ver) })
		rec.timed("bundle.predict", root, i, func() { _, err = b.PredictWithFallback(snap) })
		rec.end(root)
	}
	if err != nil {
		return err
	}
	lp.walked = walked / float64(n)
	handler := median(plain)
	lp.set("trout.handler_us", handler, "us")
	lp.set("trace.overhead_frac", rec.medianUs("trout.handler")/handler-1, "frac")
	lp.set("livestate.pending_running_us", rec.medianUs("livestate.pending_running"), "us")
	lp.set("livestate.user_history_us", rec.medianUs("livestate.user_history"), "us")
	lp.set("features.snapshot_row_us", rec.medianUs("features.snapshot_row"), "us")
	lp.set("features.jobs_walked", lp.walked, "count")
	lp.set("core.predict_ns", rec.medianUs("core.predict")*1e3, "ns")
	lp.set("core.long_frac", long/float64(n), "frac")
	lp.set("bundle.predict_us", rec.medianUs("bundle.predict"), "us")
	return nil
}

// batchPath samples POST /predict/batch of 16 on the static state.
func (lp *layerPass) batchPath() error {
	rec, b, at := lp.rec, lp.b, lp.st.now
	eng := lp.static.svc.LiveStore().Engine()
	pending, running, ver := eng.PendingRunning(at)
	batches := lp.in.batchRequests(at)
	nb := max(lp.cfg.samples/8, 4)
	var err error
	batch := func(i int) {
		if status, body := serve(lp.static.h, lp.static.w, http.MethodPost, "/predict/batch", httpBody(batches[i%len(batches)].raw)); !validPredictions(status, body, batchJobs, -1) {
			err = fmt.Errorf("in-process /predict/batch: HTTP %d: %s", status, body)
		}
	}
	batch(0)
	lp.set("trout.batch_handler_allocs", mallocsPer(nb, batch), "count")
	for i := 0; i < nb && err == nil; i++ {
		br := &batches[i%len(batches)]
		root := rec.begin("batch_request", 0, i)
		rec.timed("trout.batch_handler", root, i, func() { batch(i) })
		layers := rec.begin("batch_layers", root, i)
		snaps := make([]*trout.Snapshot, len(br.jobs))
		rows := make([][]float64, len(br.jobs))
		var rowsUs float64
		for k, j := range br.jobs {
			j.Submit, j.Eligible = at, at
			hist, _ := eng.UserHistoryChecked(j.User, at, ver)
			snaps[k] = &trout.Snapshot{Now: at, Target: j, Pending: pending, Running: running, History: hist}
			id := rec.begin("features.snapshot_row.batch", layers, i)
			var rowErr error
			rows[k], rowErr = features.SnapshotRow(snaps[k], &b.Cluster, b.Runtime)
			rec.end(id)
			rowsUs += rec.us(id)
			if rowErr != nil {
				return rowErr
			}
		}
		lp.batchRowsUs = append(lp.batchRowsUs, rowsUs)
		rec.timed("core.predict_batch16", layers, i, func() { b.Model.PredictBatch(rows) })
		rec.timed("bundle.predict_batch16", layers, i, func() { b.PredictBatchWithFallback(snaps) })
		rec.end(layers)
		rec.end(root)
	}
	if err != nil {
		return err
	}
	lp.set("trout.batch_handler_us", rec.medianUs("trout.batch_handler"), "us")
	lp.set("core.predict_batch16_us", rec.medianUs("core.predict_batch16"), "us")
	lp.set("bundle.predict_batch16_us", rec.medianUs("bundle.predict_batch16"), "us")
	return nil
}

// smallCalls times the calls that take a microsecond or less, in blocks:
// scaler, the two heads, the fallback GBDT, the runtime forest per job,
// and the two middleware stacks over a handler that does nothing.
func (lp *layerPass) smallCalls() error {
	rec, b, blocks := lp.rec, lp.b, lp.blocks()
	scaled := make([]float64, features.NumFeatures)
	row := func(i int) []float64 { return lp.rows[i%len(lp.rows)] }
	lp.set("scaling.transform_ns", rec.blockNs("scaling.transform", blocks, blockCalls, func(i int) {
		scaling.TransformInto(b.Model.Scaler, scaled, row(i))
	}), "ns")
	lp.set("core.classify_ns", rec.blockNs("core.classify", blocks, blockCalls, func(i int) {
		b.Model.Classifier.Predict1(scaled)
	}), "ns")
	lp.set("core.regress_ns", rec.blockNs("core.regress", blocks, blockCalls, func(i int) {
		b.Model.Regressor.Predict1(scaled)
	}), "ns")
	lp.set("baselines.gbdt_predict_ns", rec.blockNs("baselines.gbdt_predict", blocks, blockCalls, func(i int) {
		b.Fallback.Baseline.Predict(row(i))
	}), "ns")
	queued, _, _ := lp.static.svc.LiveStore().Engine().PendingRunning(lp.st.now)
	forestNs := rec.blockNs("features.runtime_predict", blocks, blockCalls, func(i int) {
		o := &queued[i%len(queued)]
		b.Runtime.PredictSeconds(o, b.Cluster.Totals(o.Partition))
	})
	lp.set("features.runtime_predict_ns", forestNs, "ns")
	lp.set("features.forest_share", lp.walked*forestNs/(lp.res.Metrics["features.snapshot_row_us"].Value*1e3), "frac")

	logger, err := obs.NewLogger(io.Discard, "info", "json")
	if err != nil {
		return err
	}
	tracer, err := obs.NewTracer(obs.TracerConfig{})
	if err != nil {
		return err
	}
	noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	w := lp.static.w
	instrumented := obs.Instrument(noop, obs.HTTPOptions{Logger: logger, Tracer: tracer, SLO: obs.NewSLOTracker(obs.SLOConfig{})})
	lp.set("obs.instrument_ns", rec.blockNs("obs.instrument", blocks, blockCalls, func(i int) {
		serve(instrumented, w, http.MethodPost, "/predict", nil)
	}), "ns")
	guarded := resilience.Recover(resilience.Timeout(resilience.MaxBytes(noop, 8<<20), 10*time.Second, nil), nil)
	lp.set("resilience.middleware_ns", rec.blockNs("resilience.middleware", blocks, blockCalls, func(i int) {
		serve(guarded, w, http.MethodPost, "/predict", nil)
	}), "ns")
	return nil
}

// livePath samples live_mix's operation on a memory-only store: one
// lifecycle step, then the predict that follows the version bump and so
// rebuilds the snapshot.
func (lp *layerPass) livePath() error {
	rec := lp.rec
	live, err := newInProcess(lp.in, lp.st, "")
	if err != nil {
		return err
	}
	life := lp.st.life.rewind(lp.in.size.historySteps)
	var enc eventsEncoder
	for i := 0; i < lp.cfg.samples; i++ {
		_, body := enc.encode(life, 1)
		root := rec.begin("live_request", 0, i)
		var now int64
		var ok bool
		rec.timed("trout.events_step", root, i, func() {
			status, reply := serve(live.h, live.w, http.MethodPost, "/events", body)
			now, ok = validEvents(status, reply, stepEvents)
		})
		if !ok {
			return fmt.Errorf("in-process /events step %d refused: %s", i, live.w.body)
		}
		q := &lp.reqs[i%len(lp.reqs)]
		q.patch(now, requestIDLo+i)
		rec.timed("trout.handler_miss", root, i, func() {
			status, reply := serve(live.h, live.w, http.MethodPost, "/predict", httpBody(q.raw))
			ok = validPredictions(status, reply, 1, -1)
		})
		rec.end(root)
		if !ok {
			return fmt.Errorf("in-process /predict after step %d: %s", i, live.w.body)
		}
	}
	lp.set("trout.events_step_us", rec.medianUs("trout.events_step"), "us")
	lp.set("trout.handler_miss_us", rec.medianUs("trout.handler_miss"), "us")
	return nil
}

// ingestPath samples ingest_catchup's operation: 256-event bodies into a
// WAL-backed store in the checkout.
func (lp *layerPass) ingestPath() error {
	walSvc, err := newInProcess(lp.in, lp.st, filepath.Join(lp.dir, "wal-svc"))
	if err != nil {
		return err
	}
	life := lp.st.life.rewind(lp.in.size.historySteps)
	var enc eventsEncoder
	for i := 0; i < max(lp.cfg.samples/4, 4); i++ {
		_, body := enc.encode(life, ingestSteps)
		var ok bool
		lp.rec.timed("trout.events_batch", 0, i, func() {
			status, reply := serve(walSvc.h, walSvc.w, http.MethodPost, "/events", body)
			_, ok = validEvents(status, reply, ingestSteps*stepEvents)
		})
		if !ok {
			return fmt.Errorf("in-process /events batch %d refused: %s", i, walSvc.w.body)
		}
	}
	lp.set("trout.events_batch_us", lp.rec.medianUs("trout.events_batch"), "us")
	return walSvc.svc.LiveStore().Close()
}

// ledger picks the handler this workload's operation runs and the layer
// calls on its path.
func (lp *layerPass) ledger() (handlerUs float64, children []ledgerTerm) {
	us := func(name string) float64 {
		v := lp.res.Metrics[name]
		if v.Unit == "ns" {
			return v.Value / 1e3
		}
		return v.Value
	}
	term := func(label, name string, times float64) ledgerTerm {
		return ledgerTerm{Name: label, Us: us(name) * times}
	}
	switch lp.wl.kind {
	case kindPredict:
		handlerUs = us("trout.handler_us")
		children = []ledgerTerm{term("features.snapshot_row", "features.snapshot_row_us", 1), term("core.predict", "core.predict_ns", 1)}
	case kindBatch:
		handlerUs = us("trout.batch_handler_us")
		children = []ledgerTerm{{Name: "16 x features.snapshot_row", Us: median(lp.batchRowsUs)}, term("core.predict_batch16", "core.predict_batch16_us", 1)}
	case kindLiveMix:
		handlerUs = us("trout.events_step_us") + us("trout.handler_miss_us")
		children = []ledgerTerm{
			term("4 x livestate.decode_event", "livestate.decode_event_ns", stepEvents),
			term("4 x livestate.apply", "livestate.apply_ns", stepEvents),
			term("livestate.pending_running", "livestate.pending_running_us", 1),
			term("livestate.user_history", "livestate.user_history_us", 1),
			term("features.snapshot_row", "features.snapshot_row_us", 1),
			term("core.predict", "core.predict_ns", 1),
		}
	case kindIngest:
		const evs = ingestSteps * stepEvents
		handlerUs = us("trout.events_batch_us")
		children = []ledgerTerm{
			term("256 x livestate.decode_event", "livestate.decode_event_ns", evs),
			term("256 x livestate.apply", "livestate.apply_ns", evs),
			term("256 x livestate.wal_append", "livestate.wal_append_ns", evs),
			term("livestate.sync", "livestate.sync_us", 1),
		}
	}
	return handlerUs, children
}

// writePath times the write path's layers on a bare engine and store:
// decode, apply, WAL append, sync, checkpoint and recovery.
func (lp *layerPass) writePath() error {
	rec := lp.rec
	events, tail := 2*lp.blocks()*blockCalls, max(10*lp.cfg.samples, 1000)
	life := lp.st.life.rewind(lp.in.size.historySteps)
	var jsonl []byte
	for s := 0; s <= (events+tail)/stepEvents; s++ {
		jsonl = life.appendStep(jsonl)
	}
	lines := bytes.Split(bytes.TrimSuffix(jsonl, []byte{'\n'}), []byte{'\n'})
	evs := make([]livestate.Event, len(lines))
	blocks := events / blockCalls
	var err error
	lp.set("livestate.decode_event_ns", rec.blockNs("livestate.decode_event", blocks, blockCalls, func(i int) {
		if evs[i], err = livestate.DecodeEvent(lines[i]); err != nil {
			panic(err) // the generator's own lines
		}
	}), "ns")
	for i := blocks * blockCalls; i < len(lines); i++ {
		if evs[i], err = livestate.DecodeEvent(lines[i]); err != nil {
			return err
		}
	}

	orc := &oracle{eng: livestate.NewEngine()}
	if err := orc.apply(lp.st.jsonl, lp.st.events); err != nil {
		return err
	}
	applyNs := rec.blockNs("livestate.apply", blocks, blockCalls, func(i int) {
		if err := orc.eng.ApplyEvent(evs[i]); err != nil {
			panic(err)
		}
	})
	lp.set("livestate.apply_ns", applyNs, "ns")

	dir := filepath.Join(lp.dir, "wal-store")
	store, err := livestate.OpenStore(livestate.StoreOptions{Dir: dir})
	if err != nil {
		return err
	}
	if err := applyJSONL(lp.st.jsonl, lp.st.events, store.Apply); err != nil {
		return err
	}
	if err := store.Sync(); err != nil {
		return err
	}
	bytes0 := store.Metrics().WALBytes
	const group = ingestSteps * stepEvents // what /events commits per ingest_catchup body
	var appendNs, syncs []float64
	applied := 0
	for ; applied+group <= events; applied += group {
		id := rec.begin("livestate.store_apply", 0, -1)
		for _, ev := range evs[applied : applied+group] {
			if err := store.Apply(ev); err != nil {
				return err
			}
		}
		rec.end(id)
		appendNs = append(appendNs, rec.us(id)*1e3/group)
		id = rec.begin("livestate.sync", 0, -1)
		err := store.Sync()
		rec.end(id)
		if err != nil {
			return err
		}
		syncs = append(syncs, rec.us(id))
	}
	lp.set("livestate.sync_us", median(syncs), "us")
	lp.set("livestate.wal_append_ns", median(appendNs)-applyNs, "ns")
	lp.set("livestate.wal_bytes_per_event", float64(store.Metrics().WALBytes-bytes0)/float64(applied), "B")

	var ckpt []float64
	for k := 0; k < 3; k++ {
		id := rec.begin("livestate.checkpoint", 0, -1)
		err := store.Checkpoint()
		rec.end(id)
		if err != nil {
			return err
		}
		ckpt = append(ckpt, rec.us(id)/1e3)
	}
	lp.set("livestate.checkpoint_ms", median(ckpt), "ms")
	for i := applied; i < applied+tail; i++ {
		if err := store.Apply(evs[i]); err != nil {
			return err
		}
	}
	if err := store.Close(); err != nil {
		return err
	}
	id := rec.begin("livestate.recover", 0, -1)
	store, err = livestate.OpenStore(livestate.StoreOptions{Dir: dir})
	rec.end(id)
	if err != nil {
		return err
	}
	if got := store.Recovered().Replayed; got != uint64(tail) {
		return fmt.Errorf("recovery replayed %d WAL records, want the %d-record tail", got, tail)
	}
	lp.set("livestate.recover_ms", rec.us(id)/1e3, "ms")
	return store.Close()
}

// runTraced is the per-layer run: one set-up, the oracle, a closed and a
// paced socket phase of half the usual length each for the generator's
// and the daemon's own counters, then the in-process pass with span
// recording on.
func runTraced(cfg *runConfig, wl workloadSpec) (*result, error) {
	res := newResult(cfg, wl, true)
	r, err := setUp(cfg, wl, true)
	if err != nil {
		return nil, err
	}
	defer r.close()
	res.count(r.warm)
	res.Attempted += r.checked
	m, err := r.measure(seconds(cfg.seconds/2), seconds(cfg.seconds/2), res)
	if err != nil {
		return nil, err
	}
	closed, paced, late := micros(m.closed.lat), micros(m.paced.lat), micros(m.paced.late)
	p50 := quantile(closed, 0.5)
	res.set("loadgen.p50_us", p50, "us")
	res.set("loadgen.p99_us", quantile(closed, 0.99), "us")
	res.set("loadgen.paced_p50_us", quantile(paced, 0.50), "us")
	res.set("loadgen.paced_p99_us", quantile(paced, 0.99), "us")
	res.set("loadgen.late_p99_us", quantile(late, 0.99), "us")
	res.set("loadgen.samples", float64(len(closed)), "count")
	within := 0
	for _, d := range m.paced.lat {
		if d <= wl.limit {
			within++
		}
	}
	res.set("loadgen.slo_ok_frac", float64(within)/float64(m.paced.sent), "frac")
	res.Samples["loadgen.p50_us"], res.Samples["loadgen.p99_us"] = len(closed), len(closed)
	res.Samples["loadgen.paced_p50_us"], res.Samples["loadgen.paced_p99_us"], res.Samples["loadgen.late_p99_us"] = len(paced), len(paced), len(late)
	res.set("bench.build_s", cfg.buildSecs, "s")

	delta := func(key string) float64 { return m.after[key] - m.before[key] }
	const cache = `trout_snapshot_cache_requests_total{result="`
	lookups := sumPrefix(m.after, cache) - sumPrefix(m.before, cache)
	hitFrac := 0.0
	if lookups > 0 {
		hitFrac = delta(cache+`hit"}`) / lookups
	}
	res.set("troutd.cache_hit_frac", hitFrac, "frac")
	res.set("troutd.tier_nn_frac", m.after[`trout_predictions_total{tier="nn"}`]/sumPrefix(m.after, "trout_predictions_total"), "frac")
	const adm = `trout_admission_total{decision="`
	res.set("troutd.shed_frac", 1-m.after[adm+`accepted"}`]/sumPrefix(m.after, adm), "frac")
	res.set("troutd.gc_cycles_per_s", delta("trout_runtime_gc_cycles_total")/m.wall.Seconds(), "1/s")
	res.set("troutd.heap_mb", m.after["trout_runtime_heap_bytes"]/(1<<20), "MB")
	if err := r.close(); err != nil {
		return nil, err
	}

	lp := &layerPass{cfg: cfg, wl: wl, in: r.in, st: r.st, res: res,
		rec: &recorder{t0: time.Now()},
		dir: cfg.workDir()}
	defer func() {
		_ = os.RemoveAll(filepath.Join(lp.dir, "wal-svc"))
		_ = os.RemoveAll(filepath.Join(lp.dir, "wal-store"))
	}()
	handlerUs, children, err := lp.run()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := lp.rec.write(filepath.Join(cfg.outDir, "spans-"+wl.name+".jsonl")); err != nil {
		return nil, err
	}

	// p50 = network and server overhead + what the handler does itself +
	// the layer calls on its path. The first is what the socket adds to
	// the in-process handler, the second what the handler's children leave.
	rest := handlerUs
	for _, c := range children {
		rest -= c.Us
	}
	res.set("net.overhead_us", p50-handlerUs, "us")
	res.set("trout.handler_rest_us", rest, "us")
	res.Ledger = append([]ledgerTerm{{Name: "net.overhead", Us: p50 - handlerUs}, {Name: "trout.handler_rest", Us: rest}}, children...)
	for i := range res.Ledger {
		res.Ledger[i].Share = res.Ledger[i].Us / p50
	}
	if rest < 0 {
		res.invalid("ledger: the handler's children (%.1f us) exceed the handler (%.1f us)", handlerUs-rest, handlerUs)
	}
	return res, nil
}
