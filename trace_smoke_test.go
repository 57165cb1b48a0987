// Trace smoke (make trace-smoke, part of make ci): run the serving stack
// with tracing fully on (head sampling 1.0) and validate every line the
// JSONL exporter wrote — IDs well-formed, parent references resolving
// within the line, children nested inside their parents' intervals, links
// structurally sound. Plus two pins: a slow (over-threshold) request
// exports one trace whose tree runs middleware → snapshot → featurize →
// scale → classify and the same trace ID is retrievable from
// GET /debug/requests; and the stage histogram and access log agree with
// the exported tree's stage spans, tracer or no tracer.
package trout_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	trout "repro"
	"repro/internal/obs"
)

var hex16 = regexp.MustCompile(`^[0-9a-f]{16}$`)

// readTraceFile decodes every JSONL line of a trace export file.
func readTraceFile(t *testing.T, path string) []obs.TraceJSON {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open trace export: %v", err)
	}
	defer f.Close()
	var out []obs.TraceJSON
	scan := bufio.NewScanner(f)
	scan.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for scan.Scan() {
		var line obs.TraceJSON
		if err := json.Unmarshal(scan.Bytes(), &line); err != nil {
			t.Fatalf("non-JSON trace line %q: %v", scan.Text(), err)
		}
		out = append(out, line)
	}
	if err := scan.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// validateTraceLine enforces the export schema on one trace: well-formed
// IDs, in-line parent resolution, interval nesting, sound links.
func validateTraceLine(t *testing.T, line obs.TraceJSON) {
	t.Helper()
	if !hex16.MatchString(line.TraceID) {
		t.Fatalf("trace ID %q not 16-hex", line.TraceID)
	}
	if len(line.Spans) == 0 {
		t.Fatalf("trace %s exported with no spans", line.TraceID)
	}
	if line.DurationMs < 0 {
		t.Fatalf("trace %s duration %f < 0", line.TraceID, line.DurationMs)
	}
	byID := map[string]obs.SpanJSON{}
	for _, s := range line.Spans {
		if !hex16.MatchString(s.SpanID) {
			t.Fatalf("trace %s: span ID %q not 16-hex", line.TraceID, s.SpanID)
		}
		if _, dup := byID[s.SpanID]; dup {
			t.Fatalf("trace %s: duplicate span ID %s", line.TraceID, s.SpanID)
		}
		byID[s.SpanID] = s
	}
	roots := 0
	for _, s := range line.Spans {
		if s.Name == "" {
			t.Fatalf("trace %s: span %s unnamed", line.TraceID, s.SpanID)
		}
		if s.EndUnixNs < s.StartUnixNs {
			t.Fatalf("trace %s: span %s ends before it starts", line.TraceID, s.SpanID)
		}
		if s.ParentID == "" {
			roots++
			if s.Name != line.Root {
				t.Fatalf("trace %s: root span %q != line root %q", line.TraceID, s.Name, line.Root)
			}
		} else {
			p, ok := byID[s.ParentID]
			if !ok {
				t.Fatalf("trace %s: span %s parent %s not in line", line.TraceID, s.SpanID, s.ParentID)
			}
			if s.StartUnixNs < p.StartUnixNs || s.EndUnixNs > p.EndUnixNs {
				t.Fatalf("trace %s: span %s [%d,%d] escapes parent %s [%d,%d]",
					line.TraceID, s.SpanID, s.StartUnixNs, s.EndUnixNs,
					s.ParentID, p.StartUnixNs, p.EndUnixNs)
			}
		}
		if s.Link != nil {
			if s.Link.TraceID == "" || !hex16.MatchString(s.Link.SpanID) {
				t.Fatalf("trace %s: span %s malformed link %+v", line.TraceID, s.SpanID, *s.Link)
			}
		}
	}
	if roots != 1 {
		t.Fatalf("trace %s: %d parentless spans, want exactly 1", line.TraceID, roots)
	}
}

// TestTraceSmoke floods the serving stack with everything-sampled tracing
// and schema-checks the entire export file.
func TestTraceSmoke(t *testing.T) {
	q := liveQueueFixture(t)
	file := filepath.Join(t.TempDir(), "traces.jsonl")
	svc, err := trout.NewServiceWith(fastBundle(t), q.Trace, trout.ServiceConfig{
		FastInference: true,
		Tracing:       obs.TracerConfig{SampleRate: 1, Path: file, QueueLen: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	sc := smokeLoad(t, srv.URL, 600, 8, q.Now, 1_000_000)
	if len(sc.Invalid) != 0 || sc.Total != 600 || sc.Status[http.StatusOK] != sc.Total {
		t.Fatalf("statuses %v with tracing on, invalid: %v", sc.Status, sc.Invalid)
	}
	svc.Tracer().Flush()

	lines := readTraceFile(t, file)
	// Head sampling at 1.0 keeps every request.
	if len(lines) < 600 {
		t.Fatalf("exported %d traces, want >= 600", len(lines))
	}
	for _, line := range lines {
		validateTraceLine(t, line)
	}
	if st := svc.Tracer().Stats(); st.ExportDropped > 0 {
		t.Logf("note: %d traces dropped at the export queue", st.ExportDropped)
	}
}

// TestTraceSlowRequestRecorded is the acceptance pin: with the slow
// threshold floored, a /predict request is tail-kept as slow, its
// exported tree runs middleware root → snapshot → featurize → scale →
// classify, and the identical trace ID is retrievable from
// GET /debug/requests.
func TestTraceSlowRequestRecorded(t *testing.T) {
	const traceID = "cafe0123deadbeef"
	e := sharedExperiment(t)
	file := filepath.Join(t.TempDir(), "traces.jsonl")
	svc, err := trout.NewServiceWith(fastBundle(t), e.Trace, trout.ServiceConfig{
		FastInference: true,
		Tracing: obs.TracerConfig{
			SampleRate:    -1, // head sampling off: only the slow rule can export
			SlowThreshold: time.Nanosecond,
			Path:          file,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)

	at := e.Trace.Jobs[len(e.Trace.Jobs)-1].End + 100
	body := strings.NewReader(
		`{"at":` + jsonInt(at) + `,"job":{"user":3,"partition":"shared","req_cpus":8,"req_mem_gb":16,"req_nodes":1,"time_limit":7200,"priority":3000}}`)
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/predict", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceIDHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict = %d", resp.StatusCode)
	}
	svc.Tracer().Flush()

	lines := readTraceFile(t, file)
	var mine *obs.TraceJSON
	for i := range lines {
		validateTraceLine(t, lines[i])
		if lines[i].TraceID == traceID {
			mine = &lines[i]
		}
	}
	if mine == nil {
		t.Fatalf("slow request trace %s not exported; file has %d traces", traceID, len(lines))
	}
	names := map[string]obs.SpanJSON{}
	for _, s := range mine.Spans {
		names[s.Name] = s
	}
	if _, ok := names["POST /predict"]; !ok {
		t.Fatalf("no middleware root span: %v", spanNames(mine.Spans))
	}
	root := names["POST /predict"]
	for _, stage := range []string{obs.StageSnapshot, obs.StageFeaturize, obs.StageScale, obs.StageClassify} {
		if sp, ok := names[stage]; !ok || sp.ParentID != root.SpanID {
			t.Fatalf("no %s stage span under the root: %v", stage, spanNames(mine.Spans))
		}
	}

	// The same trace ID must be sitting in the flight recorder.
	dresp, err := http.Get(srv.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests = %d", dresp.StatusCode)
	}
	var dbg obs.DebugRequests
	if err := json.NewDecoder(dresp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	for _, rec := range dbg.Slowest {
		if rec.TraceID == traceID {
			if len(rec.Spans) == 0 {
				t.Fatal("recorded trace has no spans")
			}
			return
		}
	}
	t.Fatalf("trace %s not in /debug/requests slowest ring (%d entries)", traceID, len(dbg.Slowest))
}

// TestStageMetricsMatchTree pins the single span model: a POST /predict
// and a 3-job /predict/batch record the same stage set (a single predict is
// a batch of one), a 256-job batch records scale/classify/regress once per
// 16-row chunk without hitting the per-trace span cap, the stage names and
// counts on /metrics equal the stage children of the exported trees (each
// nested in its root), the access log's spans group carries the same
// stages, and the identical histograms and log groups fill with the tracer
// disabled.
func TestStageMetricsMatchTree(t *testing.T) {
	allStages := []string{obs.StageSnapshot, obs.StageFeaturize, obs.StageScale,
		obs.StageClassify, obs.StageRegress, obs.StageFallback}
	for _, disabled := range []bool{false, true} {
		t.Run(map[bool]string{false: "traced", true: "tracing-disabled"}[disabled], func(t *testing.T) {
			e := sharedExperiment(t)
			var sb syncBuf
			logger, err := obs.NewLogger(&sb, "info", "json")
			if err != nil {
				t.Fatal(err)
			}
			file := filepath.Join(t.TempDir(), "traces.jsonl")
			svc, err := trout.NewServiceWith(resilientBundle(t), e.Trace, trout.ServiceConfig{
				Logger:  logger,
				Tracing: obs.TracerConfig{Disabled: disabled, SampleRate: 1, Path: file},
			})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(svc.Handler())
			t.Cleanup(srv.Close)

			at := jsonInt(e.Trace.Jobs[len(e.Trace.Jobs)-1].End + 100)
			job := `{"user":3,"partition":"shared","req_cpus":8,"req_mem_gb":16,"req_nodes":1,"time_limit":7200,"priority":3000}`
			post := func(traceID, path, body string, out any) {
				t.Helper()
				req, err := http.NewRequest(http.MethodPost, srv.URL+path, strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set(obs.TraceIDHeader, traceID)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s = %d", path, resp.StatusCode)
				}
				if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
					t.Fatal(err)
				}
			}
			const singleID, batchID, bigID = "aaaa0000aaaa0000", "bbbb1111bbbb1111", "cccc2222cccc2222"
			var pr struct {
				Long bool   `json:"long"`
				Tier string `json:"tier"`
			}
			post(singleID, "/predict", `{"at":`+at+`,"job":`+job+`}`, &pr)
			var br struct {
				Results []struct {
					Tier string `json:"tier"`
				} `json:"results"`
			}
			post(batchID, "/predict/batch", `{"at":`+at+`,"jobs":[`+job+`,`+job+`,`+job+`]}`, &br)
			if pr.Tier != "nn" || len(br.Results) != 3 || br.Results[0].Tier != "nn" {
				t.Fatalf("expected healthy nn answers, got %+v %+v", pr, br)
			}
			post(bigID, "/predict/batch", `{"at":`+at+`,"jobs":[`+strings.Repeat(job+",", 255)+job+`]}`, &br)
			if len(br.Results) != 256 || br.Results[255].Tier != "nn" {
				t.Fatalf("expected 256 healthy nn answers, got %d", len(br.Results))
			}

			// What a healthy request records: one span per stage, the model
			// stages once per chunk.
			want := map[string]map[string]int{}
			for id, chunks := range map[string]int{singleID: 1, batchID: 1, bigID: 16} {
				want[id] = map[string]int{obs.StageSnapshot: 1, obs.StageFeaturize: 1,
					obs.StageScale: chunks, obs.StageClassify: chunks}
				if pr.Long {
					want[id][obs.StageRegress] = chunks
				}
			}

			// A response larger than the server's buffer (the 256-job batch)
			// reaches the client before obs.Instrument has observed the
			// stages and enqueued the trace; it writes the access-log record
			// only after both, so wait for the three records before flushing
			// the exporter or scraping /metrics.
			logs := accessLogs(t, &sb, 3)

			// The exported trees (tracer on) hold exactly those stage spans,
			// each inside its root's interval.
			svc.Tracer().Flush()
			if disabled {
				if _, err := os.Stat(file); err == nil {
					t.Fatal("a disabled tracer wrote a trace file")
				}
			} else {
				found := 0
				for _, line := range readTraceFile(t, file) {
					wantStages, ok := want[line.TraceID]
					if !ok {
						continue
					}
					found++
					validateTraceLine(t, line)
					root := line.Spans[0]
					got := map[string]int{}
					for _, s := range line.Spans[1:] {
						if s.StartUnixNs < root.StartUnixNs || s.EndUnixNs > root.EndUnixNs {
							t.Fatalf("trace %s: span %s escapes the root interval", line.TraceID, s.Name)
						}
						if obs.IsStage(s.Name) {
							got[s.Name]++
						}
					}
					if !maps.Equal(got, wantStages) {
						t.Fatalf("trace %s: tree stages %v, want %v", line.TraceID, got, wantStages)
					}
				}
				if found != len(want) {
					t.Fatalf("%d of %d request traces exported", found, len(want))
				}
			}

			// The access log's spans groups name the same stages (a decoded
			// JSON group keeps one member per name).
			for _, m := range logs {
				id, _ := m["trace_id"].(string)
				wantStages, ok := want[id]
				if !ok {
					continue
				}
				spans, _ := m["spans"].(map[string]any)
				for stage := range wantStages {
					if _, ok := spans[stage]; !ok || len(spans) != len(wantStages) {
						t.Fatalf("access log %s: spans %v, want stages %v", id, spans, wantStages)
					}
				}
			}

			// And /metrics counts one observation per stage span, none lost
			// to the span cap.
			text, _ := scrape(t, srv.URL)
			if !disabled && metricValue(t, text, "trout_trace_spans_dropped_total") != 0 {
				t.Fatal("the span cap dropped spans of a 256-job batch")
			}
			for _, stage := range allStages {
				wantN := want[singleID][stage] + want[batchID][stage] + want[bigID][stage]
				series := fmt.Sprintf(`trout_predict_stage_duration_seconds_count{stage=%q}`, stage)
				gotN := 0
				if strings.Contains(text, series) {
					gotN = int(metricValue(t, text, series))
				}
				if gotN != wantN {
					t.Fatalf("%s = %d, want %d", series, gotN, wantN)
				}
			}
		})
	}
}

func spanNames(spans []obs.SpanJSON) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

func jsonInt(v int64) string {
	return strconv.FormatInt(v, 10)
}
