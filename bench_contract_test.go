// The benchmark in bench/ is a module of its own that tier-1 (`go build
// ./... && go test ./...` at the root) never compiles, and this repository's
// PRs may not edit it. These two tests put its contract with the root
// module inside tier-1: the API it compiles against, and the response
// bytes and metric series its checks look for by name.
package trout_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"strings"
	"testing"

	trout "repro"
)

// TestBenchModuleVets runs `go vet ./...` in bench/ exactly as `make
// bench-module` does, so a root API change that breaks the benchmark's
// build fails here instead of surfacing as a failed benchmark run.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the bench module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("cd bench && go vet ./...: %v\n%s", err, out)
	}
}

// TestBenchWireContract asserts, on an events-fed service like the one the
// benchmark boots, the bytes bench/check.go and bench/layers.go search
// responses and /metrics for.
func TestBenchWireContract(t *testing.T) {
	svc, err := trout.NewServiceWith(resilientBundle(t), nil, trout.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	body := func(resp *http.Response, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d: %s", resp.Request.URL.Path, resp.StatusCode, b)
		}
		return string(b)
	}
	requireAll := func(what, got string, wants ...string) {
		t.Helper()
		for _, want := range wants {
			if !strings.Contains(got, want) {
				t.Errorf("%s lacks %s:\n%s", what, want, got)
			}
		}
	}

	const at = 5000
	ack := body(http.Post(srv.URL+"/events", "application/x-ndjson", strings.NewReader(cacheEventsBody(9500001, at))))
	requireAll("/events ack", ack, `"applied":`, `"now":`)
	for _, never := range []string{`"rejected"`, `"bad_lines"`} {
		if strings.Contains(ack, never) {
			t.Errorf("clean /events ack carries %s: %s", never, ack)
		}
	}

	job := `{"user":3,"partition":"shared","req_cpus":4,"req_mem_gb":8,"req_nodes":1,"time_limit":3600,"priority":1000}`
	for path, req := range map[string]string{
		"/predict":       fmt.Sprintf(`{"at":%d,"job":%s}`, at+1, job),
		"/predict/batch": fmt.Sprintf(`{"at":%d,"jobs":[%s]}`, at+1, job),
	} {
		requireAll(path, body(http.Post(srv.URL+path, "application/json", strings.NewReader(req))),
			`"tier":"nn"`, `"snapshot_source":"live"`, `"prob":`, `"pending_in_snapshot":`)
	}

	body(http.Get(srv.URL + "/ready"))
	requireAll("/metrics", body(http.Get(srv.URL+"/metrics")),
		`trout_snapshot_cache_requests_total{result=`,
		`trout_predictions_total{tier="nn"}`,
		`trout_admission_total{decision="accepted"}`,
		"trout_runtime_gc_cycles_total ",
		"trout_runtime_heap_bytes ",
		`trout_queue_pending{partition="shared"} 1`,
		"trout_queue_running",
		"trout_livestate_history_entries 1",
	)
}
