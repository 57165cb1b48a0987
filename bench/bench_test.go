package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickPass runs every workload, untraced and traced, against the
// service behind an in-process listener with tiny inputs, and holds the
// output to BENCHMARK.json: every end-to-end metric once per untraced run,
// every per-layer metric once per traced run, each with its declared unit.
// It also checks what the full-size run relies on: spans nest inside
// their parents, and the ledger adds up with a non-negative residual.
func TestQuickPass(t *testing.T) {
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	cfg := newConfig(1, 0.6, true)
	cfg.buildDir, cfg.outDir = t.TempDir(), t.TempDir()
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, spec.Workloads[i].Name, wl.name)
		}
		t.Run(wl.name, func(t *testing.T) {
			res, err := runUntraced(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, spec.EndToEnd, true)

			res, err = runTraced(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, spec.PerLayer, false)
			checkSpans(t, filepath.Join(cfg.outDir, "spans-"+wl.name+".jsonl"))
			var sum float64
			for _, term := range res.Ledger {
				sum += term.Us
			}
			if p50 := res.Metrics["loadgen.p50_us"].Value; math.Abs(sum-p50) > 1e-6*p50 {
				t.Errorf("ledger terms add up to %.3f us, p50 is %.3f us", sum, p50)
			}
			if rest := res.Metrics["trout.handler_rest_us"].Value; rest < 0 {
				t.Errorf("ledger residual trout.handler_rest_us = %.3f us is negative", rest)
			}
		})
	}
}

func checkMetrics(t *testing.T, res *result, want []metricSpec, positive bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Invalid)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, ms := range want {
		m, ok := res.Metrics[ms.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", ms.Name)
		case m.Unit != ms.Unit:
			t.Errorf("metric %s emitted in %q, declared in %q", ms.Name, m.Unit, ms.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", ms.Name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, must never be 0", ms.Name, m.Value)
		}
	}
}

// checkSpans reads a span file back and checks that every child lies
// inside its parent's interval and belongs to the same request.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	children := 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		children++
		p := spans[s.Parent-1]
		if p.ID != s.Parent || s.Start < p.Start || s.End > p.End || s.Request != p.Request {
			t.Errorf("span %d %s [%d,%d] request %d does not nest in parent %d %s [%d,%d] request %d",
				s.ID, s.Name, s.Start, s.End, s.Request, p.ID, p.Name, p.Start, p.End, p.Request)
		}
	}
	if children == 0 {
		t.Errorf("%s holds no child span", path)
	}
}
