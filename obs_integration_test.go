// Integration tests for the observability subsystem: Prometheus
// exposition lint, trace-ID propagation through the request pipeline, the
// online accuracy loop (predict → start event → updated gauges), and
// training telemetry surfacing on /metrics.
package trout_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	trout "repro"
	"repro/internal/nn"
	"repro/internal/obs"
)

// ---------------------------------------------------------------------------
// Exposition lint

var metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

type expoSample struct {
	name   string // full sample name (may carry _bucket/_sum/_count)
	labels string // raw label block, "" when bare
	le     string // value of the le label, histogram buckets only
	value  float64
}

type expoFamily struct {
	name    string
	typ     string
	help    bool
	samples []expoSample
}

// parseExposition lints a text-format 0.0.4 body line by line and returns
// the families in document order. Any format violation fails the test.
func parseExposition(t *testing.T, body string) []expoFamily {
	t.Helper()
	var fams []expoFamily
	byName := map[string]*expoFamily{}
	cur := "" // family the parser is inside, for ordering checks
	family := func(name string) *expoFamily {
		f, ok := byName[name]
		if !ok {
			fams = append(fams, expoFamily{name: name})
			f = &fams[len(fams)-1]
			byName[name] = f
		}
		return f
	}
	// sampleFamily maps a sample name back to its family: exact match, or
	// histogram series suffixes on an already-declared histogram family.
	sampleFamily := func(name string) *expoFamily {
		if f, ok := byName[name]; ok && f.typ != "" {
			return f
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base == name {
				continue
			}
			if f, ok := byName[base]; ok && f.typ == "histogram" {
				return f
			}
		}
		return nil
	}

	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		lineNo := ln + 1
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !metricNameRe.MatchString(name) {
				t.Fatalf("line %d: malformed HELP: %q", lineNo, line)
			}
			f := family(name)
			if f.help {
				t.Fatalf("line %d: duplicate HELP for %s", lineNo, name)
			}
			if len(f.samples) > 0 {
				t.Fatalf("line %d: HELP for %s after its samples", lineNo, name)
			}
			f.help = true
			cur = name
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || !metricNameRe.MatchString(name) {
				t.Fatalf("line %d: malformed TYPE: %q", lineNo, line)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q for %s", lineNo, typ, name)
			}
			f := family(name)
			if !f.help {
				t.Fatalf("line %d: TYPE for %s precedes its HELP", lineNo, name)
			}
			if f.typ != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			if len(f.samples) > 0 {
				t.Fatalf("line %d: TYPE for %s after its samples", lineNo, name)
			}
			f.typ = typ
			cur = name
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", lineNo, line)
		}

		// Sample line: name[{labels}] value
		s := parseSampleLine(t, lineNo, line)
		f := sampleFamily(s.name)
		if f == nil {
			t.Fatalf("line %d: sample %s has no preceding HELP/TYPE family", lineNo, s.name)
		}
		if f.name != cur {
			t.Fatalf("line %d: sample %s interleaved into family %s", lineNo, s.name, cur)
		}
		f.samples = append(f.samples, s)
	}

	for i := range fams {
		f := &fams[i]
		if !f.help || f.typ == "" {
			t.Fatalf("family %s missing HELP or TYPE", f.name)
		}
		// A family with zero samples is legal: vec families advertise
		// HELP/TYPE before their first child exists.
		if f.typ == "histogram" {
			lintHistogram(t, f)
		}
	}
	return fams
}

func parseSampleLine(t *testing.T, lineNo int, line string) expoSample {
	t.Helper()
	var s expoSample
	rest := line
	brace := strings.IndexByte(rest, '{')
	sp := strings.IndexByte(rest, ' ')
	if brace >= 0 && brace < sp {
		s.name = rest[:brace]
		end, le := lintLabels(t, lineNo, rest[brace:])
		s.labels = rest[brace : brace+end]
		s.le = le
		rest = rest[brace+end:]
		if len(rest) == 0 || rest[0] != ' ' {
			t.Fatalf("line %d: no space after label block: %q", lineNo, line)
		}
		rest = rest[1:]
	} else {
		if sp < 0 {
			t.Fatalf("line %d: no value: %q", lineNo, line)
		}
		s.name = rest[:sp]
		rest = rest[sp+1:]
	}
	if !metricNameRe.MatchString(s.name) {
		t.Fatalf("line %d: bad metric name %q", lineNo, s.name)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		if rest != "+Inf" && rest != "-Inf" && rest != "NaN" {
			t.Fatalf("line %d: bad value %q: %v", lineNo, rest, err)
		}
	}
	s.value = v
	return s
}

// lintLabels validates a `{name="value",...}` block starting at b[0]=='{'
// and returns its length plus the value of any `le` label. Escapes inside
// values must be limited to \\ , \" and \n.
func lintLabels(t *testing.T, lineNo int, b string) (int, string) {
	t.Helper()
	i := 1 // past '{'
	le := ""
	for {
		j := i
		for j < len(b) && b[j] != '=' {
			j++
		}
		if j >= len(b) {
			t.Fatalf("line %d: unterminated label block", lineNo)
		}
		lname := b[i:j]
		if !metricNameRe.MatchString(lname) {
			t.Fatalf("line %d: bad label name %q", lineNo, lname)
		}
		if j+1 >= len(b) || b[j+1] != '"' {
			t.Fatalf("line %d: label %s value not quoted", lineNo, lname)
		}
		k := j + 2
		var val strings.Builder
		for k < len(b) && b[k] != '"' {
			if b[k] == '\\' {
				if k+1 >= len(b) {
					t.Fatalf("line %d: dangling escape", lineNo)
				}
				switch b[k+1] {
				case '\\', '"', 'n':
				default:
					t.Fatalf("line %d: invalid escape \\%c in label %s", lineNo, b[k+1], lname)
				}
				k += 2
				val.WriteByte('?')
				continue
			}
			if b[k] == '\n' {
				t.Fatalf("line %d: raw newline in label value", lineNo)
			}
			val.WriteByte(b[k])
			k++
		}
		if k >= len(b) {
			t.Fatalf("line %d: unterminated label value", lineNo)
		}
		if lname == "le" {
			le = val.String()
		}
		k++ // past closing quote
		if k < len(b) && b[k] == ',' {
			i = k + 1
			continue
		}
		if k < len(b) && b[k] == '}' {
			return k + 1, le
		}
		t.Fatalf("line %d: expected ',' or '}' after label %s", lineNo, lname)
	}
}

// lintHistogram checks each (label-partition of a) histogram family for
// monotone cumulative buckets, a +Inf bucket, and bucket/count agreement.
func lintHistogram(t *testing.T, f *expoFamily) {
	t.Helper()
	// Partition buckets by their non-le labels so HistogramVec children
	// lint independently.
	stripLE := func(labels string) string {
		inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
		var keep []string
		for _, part := range splitLabels(inner) {
			if !strings.HasPrefix(part, "le=") {
				keep = append(keep, part)
			}
		}
		return strings.Join(keep, ",")
	}
	type hist struct {
		les     []float64
		counts  []float64
		infSeen bool
		inf     float64
		count   float64
		hasCnt  bool
	}
	parts := map[string]*hist{}
	get := func(key string) *hist {
		h, ok := parts[key]
		if !ok {
			h = &hist{}
			parts[key] = h
		}
		return h
	}
	for _, s := range f.samples {
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			h := get(stripLE(s.labels))
			if s.le == "+Inf" {
				h.infSeen = true
				h.inf = s.value
				continue
			}
			lv, err := strconv.ParseFloat(s.le, 64)
			if err != nil {
				t.Fatalf("%s: bad le %q", f.name, s.le)
			}
			h.les = append(h.les, lv)
			h.counts = append(h.counts, s.value)
		case strings.HasSuffix(s.name, "_count"):
			h := get(strings.Trim(s.labels, "{}"))
			h.count = s.value
			h.hasCnt = true
		}
	}
	for key, h := range parts {
		if !h.infSeen {
			t.Fatalf("%s{%s}: missing +Inf bucket", f.name, key)
		}
		for i := 1; i < len(h.les); i++ {
			if h.les[i] <= h.les[i-1] {
				t.Fatalf("%s{%s}: le bounds not increasing: %v", f.name, key, h.les)
			}
			if h.counts[i] < h.counts[i-1] {
				t.Fatalf("%s{%s}: buckets not cumulative: %v", f.name, key, h.counts)
			}
		}
		if len(h.counts) > 0 && h.inf < h.counts[len(h.counts)-1] {
			t.Fatalf("%s{%s}: +Inf bucket %v below last bucket %v",
				f.name, key, h.inf, h.counts[len(h.counts)-1])
		}
		if h.hasCnt && h.inf != h.count {
			t.Fatalf("%s{%s}: +Inf bucket %v != _count %v", f.name, key, h.inf, h.count)
		}
	}
}

// splitLabels splits `a="x",b="y"` on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func scrape(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// metricValue extracts a sample value by exact series key (name plus
// optional label block).
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, body)
	return 0
}

// TestMetricsExposition drives traffic through every handler family and
// then lints the full /metrics output line by line: paired HELP/TYPE
// before samples, legal names and label escaping, monotone cumulative
// histogram buckets with +Inf, and identical family/series ordering
// across two scrapes.
func TestMetricsExposition(t *testing.T) {
	srv, _ := resilientServer(t, resilientBundle(t), trout.ServiceConfig{})
	q := liveQueueFixture(t)
	// Exercise: health, a by-ID predict (stage spans), a batch predict
	// (batch-size histogram), and a 404 (error-path counter).
	if code := getJSON(t, srv.URL+"/health", &struct{}{}); code != 200 {
		t.Fatalf("health %d", code)
	}
	var pr struct {
		Long bool `json:"long"`
	}
	if code := getJSON(t, fmt.Sprintf("%s/predict?job=%d", srv.URL, q.Pending[0].ID), &pr); code != 200 {
		t.Fatalf("predict %d", code)
	}
	at := q.Now
	body := fmt.Sprintf(`{"at":%d,"jobs":[{"user":3,"partition":"shared","req_cpus":8},{"user":4,"partition":"shared","req_cpus":4}]}`, at)
	resp, err := http.Post(srv.URL+"/predict/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("batch %d", resp.StatusCode)
	}
	getJSON(t, srv.URL+"/predict?job=99999999", &struct{}{}) // 404 path

	text, ct := scrape(t, srv.URL)
	if ct != obs.ContentType {
		t.Fatalf("Content-Type %q, want %q", ct, obs.ContentType)
	}
	fams := parseExposition(t, text)

	seen := map[string]string{}
	for _, f := range fams {
		seen[f.name] = f.typ
	}
	for name, typ := range map[string]string{
		"trout_predictions_total":              "counter",
		"trout_snapshot_cache_requests_total":  "counter",
		"trout_http_requests_total":            "counter",
		"trout_http_request_duration_seconds":  "histogram",
		"trout_predict_stage_duration_seconds": "histogram",
		"trout_predict_batch_size":             "histogram",
		"trout_livestate_events_total":         "counter",
		"trout_queue_pending":                  "gauge",
		"trout_wal_lag_records":                "gauge",
		"trout_online_joined_total":            "counter",
		"trout_online_pending_predictions":     "gauge",
		"trout_online_hit_rate":                "gauge",
		"trout_online_mae_minutes":             "gauge",
		"trout_online_mape":                    "gauge",
		"trout_online_calibration_drift":       "gauge",
		"trout_train_loss":                     "gauge",
		"trout_train_epochs_total":             "counter",
		"trout_trace_started_total":            "counter",
		"trout_trace_kept_total":               "counter",
		"trout_slo_availability_burn_rate":     "gauge",
		"trout_slo_latency_burn_rate":          "gauge",
		"trout_slo_alert_state":                "gauge",
		"trout_runtime_goroutines":             "gauge",
		"trout_runtime_heap_bytes":             "gauge",
	} {
		if got := seen[name]; got != typ {
			t.Fatalf("family %s: type %q, want %q", name, got, typ)
		}
	}
	// The per-stage histogram must carry the predict pipeline stages.
	// (regress runs only for long-classified jobs — the hierarchical
	// contract — so require it only when this prediction was long.)
	stages := []string{"snapshot", "featurize", "scale", "classify"}
	if pr.Long {
		stages = append(stages, "regress")
	}
	for _, stage := range stages {
		want := fmt.Sprintf(`trout_predict_stage_duration_seconds_count{stage=%q}`, stage)
		if !strings.Contains(text, want) {
			t.Fatalf("missing stage series %s", want)
		}
	}
	if metricValue(t, text, `trout_http_requests_total{path="/predict",code="404"}`) < 1 {
		t.Fatal("404 not counted")
	}

	// Determinism: the sequence of series keys must be identical between
	// two scrapes (values may move — the scrape itself is counted). The
	// first scrape above already minted the path="/metrics" counter child,
	// so the series set is stable from here on.
	keys := func(body string) []string {
		var out []string
		for _, line := range strings.Split(body, "\n") {
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "#") {
				out = append(out, line)
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			out = append(out, line[:sp])
		}
		return out
	}
	text1, _ := scrape(t, srv.URL)
	text2, _ := scrape(t, srv.URL)
	k1, k2 := keys(text1), keys(text2)
	if len(k1) != len(k2) {
		t.Fatalf("scrape series count changed: %d vs %d", len(k1), len(k2))
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("scrape ordering not deterministic at %d: %q vs %q", i, k1[i], k2[i])
		}
	}
}

// ---------------------------------------------------------------------------
// Trace-ID propagation

// syncBuf is a goroutine-safe log sink: the access log is written after
// the response reaches the client, so tests poll it.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// accessLogs polls the sink until n "request" entries arrive, then
// returns them decoded.
func accessLogs(t *testing.T, sb *syncBuf, n int) []map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var out []map[string]any
		for _, line := range strings.Split(sb.String(), "\n") {
			if line == "" {
				continue
			}
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatalf("non-JSON log line %q: %v", line, err)
			}
			if m["msg"] == "request" {
				out = append(out, m)
			}
		}
		if len(out) >= n {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d access-log entries after timeout:\n%s", len(out), sb.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTraceIDPropagation checks the request-ID contract: a caller-supplied
// X-Request-ID is echoed on the response and stamped on the JSON access
// log with per-stage spans; a missing or malformed one is replaced by a
// generated ID.
func TestTraceIDPropagation(t *testing.T) {
	q := liveQueueFixture(t)
	var sb syncBuf
	logger, err := obs.NewLogger(&sb, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := resilientServer(t, resilientBundle(t), trout.ServiceConfig{Logger: logger})
	jobID := q.Pending[0].ID
	get := func(traceID string) *http.Response {
		req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/predict?job=%d", srv.URL, jobID), nil)
		if err != nil {
			t.Fatal(err)
		}
		if traceID != "" {
			req.Header.Set(obs.TraceIDHeader, traceID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("predict status %d", resp.StatusCode)
		}
		return resp
	}

	// 1: caller-supplied ID round-trips.
	resp := get("it-is-a-test-id-42")
	if got := resp.Header.Get(obs.TraceIDHeader); got != "it-is-a-test-id-42" {
		t.Fatalf("echoed trace ID %q", got)
	}
	// 2: absent ID → generated 16-hex.
	resp = get("")
	gen := resp.Header.Get(obs.TraceIDHeader)
	if len(gen) != 16 {
		t.Fatalf("generated trace ID %q", gen)
	}
	// 3: malformed ID (embedded quote) → replaced, not echoed.
	resp = get(`bad"id`)
	repl := resp.Header.Get(obs.TraceIDHeader)
	if repl == `bad"id` || len(repl) != 16 {
		t.Fatalf("malformed trace ID echoed as %q", repl)
	}

	logs := accessLogs(t, &sb, 3)
	byID := map[string]map[string]any{}
	for _, m := range logs {
		id, _ := m["trace_id"].(string)
		byID[id] = m
	}
	for _, id := range []string{"it-is-a-test-id-42", gen, repl} {
		m, ok := byID[id]
		if !ok {
			t.Fatalf("no access-log entry for trace ID %q; got %v", id, logs)
		}
		if m["path"] != "/predict" || m["method"] != "GET" {
			t.Fatalf("access log %v", m)
		}
		if status, _ := m["status"].(float64); status != 200 {
			t.Fatalf("access log status %v", m["status"])
		}
		spans, ok := m["spans"].(map[string]any)
		if !ok || len(spans) == 0 {
			t.Fatalf("access log entry %q has no spans: %v", id, m)
		}
		if _, ok := spans[obs.StageSnapshot]; !ok {
			t.Fatalf("spans missing %q stage: %v", obs.StageSnapshot, spans)
		}
	}
}

// ---------------------------------------------------------------------------
// Online accuracy loop

// TestOnlineAccuracyLoop is the acceptance-criteria round trip: a live
// prediction is remembered as pending, and when the engine later sees the
// job's start event the realized queue time joins against it and the
// rolling accuracy gauges on /metrics move.
func TestOnlineAccuracyLoop(t *testing.T) {
	srv, e := testService(t)
	now := e.Trace.Jobs[len(e.Trace.Jobs)-1].End + 100
	const jobID = 999999 // not in the trace: the engine alone knows it

	post := func(events string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/events", "application/jsonl", strings.NewReader(events))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("events status %d: %s", resp.StatusCode, body)
		}
	}
	post(fmt.Sprintf(`{"type":"submit","time":%d,"job":{"id":%d,"user":3,"partition":"shared","submit":%d,"req_cpus":8,"req_mem_gb":16,"req_nodes":1,"time_limit":7200,"priority":3000}}`+"\n"+
		`{"type":"eligible","time":%d,"job_id":%d}`+"\n", now, jobID, now, now+5, jobID))

	var p struct {
		Prob   float64 `json:"prob"`
		Long   bool    `json:"long"`
		Source string  `json:"snapshot_source"`
	}
	if code := getJSON(t, fmt.Sprintf("%s/predict?job=%d", srv.URL, jobID), &p); code != 200 {
		t.Fatalf("predict status %d", code)
	}
	if p.Source != "live" {
		t.Fatalf("snapshot source %q", p.Source)
	}

	text, _ := scrape(t, srv.URL)
	if v := metricValue(t, text, "trout_online_pending_predictions"); v != 1 {
		t.Fatalf("pending predictions %v before start event", v)
	}
	if v := metricValue(t, text, "trout_online_joined_total"); v != 0 {
		t.Fatalf("joined %v before start event", v)
	}

	// The job starts 65s after eligibility: a realized wait of 1 minute.
	post(fmt.Sprintf(`{"type":"start","time":%d,"job_id":%d}`+"\n", now+70, jobID))

	text, _ = scrape(t, srv.URL)
	if v := metricValue(t, text, "trout_online_joined_total"); v != 1 {
		t.Fatalf("joined %v after start event", v)
	}
	if v := metricValue(t, text, "trout_online_pending_predictions"); v != 0 {
		t.Fatalf("pending predictions %v after start event", v)
	}
	// Realized wait ≈ 1.08 min, well under the 10-minute cutoff: the hit
	// rate is 1 exactly when the classifier predicted "short".
	hit := metricValue(t, text, "trout_online_hit_rate")
	wantHit := 0.0
	if !p.Long {
		wantHit = 1.0
	}
	if hit != wantHit {
		t.Fatalf("hit rate %v (predicted long=%v)", hit, p.Long)
	}
	if v := metricValue(t, text, "trout_online_mae_minutes"); v < 0 {
		t.Fatalf("MAE %v", v)
	}
	// An unmatched start (never predicted) increments the unmatched
	// counter, not the join.
	post(fmt.Sprintf(`{"type":"submit","time":%d,"job":{"id":%d,"user":4,"partition":"shared","submit":%d,"req_cpus":4,"req_mem_gb":8,"req_nodes":1,"time_limit":3600,"priority":1000}}`+"\n"+
		`{"type":"eligible","time":%d,"job_id":%d}`+"\n"+
		`{"type":"start","time":%d,"job_id":%d}`+"\n",
		now+80, 999998, now+80, now+81, 999998, now+90, 999998))
	text, _ = scrape(t, srv.URL)
	if v := metricValue(t, text, "trout_online_unmatched_starts_total"); v != 1 {
		t.Fatalf("unmatched starts %v", v)
	}
	if v := metricValue(t, text, "trout_online_joined_total"); v != 1 {
		t.Fatalf("joined moved on unmatched start: %v", v)
	}
}

// ---------------------------------------------------------------------------
// Training telemetry

// TestServiceTrainTelemetry drives the service's TrainHooks as a refit
// would and checks the per-head training families surface on /metrics.
func TestServiceTrainTelemetry(t *testing.T) {
	e := sharedFixture(t)
	svc, err := trout.NewServiceWith(resilientBundle(t), e.Trace, trout.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)

	hooks := svc.TrainHooks()
	hooks.OnEpoch("classifier", nn.EpochStats{Epoch: 0, TrainLoss: 0.7, GradNorm: 1.5, LR: 0.01})
	hooks.OnEpoch("classifier", nn.EpochStats{Epoch: 1, TrainLoss: 0.5, GradNorm: 1.2, LR: 0.01})
	hooks.OnRollback("regressor", 3, 1, 0.05)

	text, _ := scrape(t, srv.URL)
	if v := metricValue(t, text, `trout_train_loss{head="classifier"}`); v != 0.5 {
		t.Fatalf("train loss %v", v)
	}
	if v := metricValue(t, text, `trout_train_grad_norm{head="classifier"}`); v != 1.2 {
		t.Fatalf("grad norm %v", v)
	}
	if v := metricValue(t, text, `trout_train_epochs_total{head="classifier"}`); v != 2 {
		t.Fatalf("epochs %v", v)
	}
	if v := metricValue(t, text, `trout_train_rollbacks_total{head="regressor"}`); v != 1 {
		t.Fatalf("rollbacks %v", v)
	}
	if v := metricValue(t, text, `trout_train_learning_rate{head="regressor"}`); v != 0.05 {
		t.Fatalf("rollback LR %v", v)
	}
}
