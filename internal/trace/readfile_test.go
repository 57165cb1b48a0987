package trace_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/slurmsim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// A simulated trace, as tracegen writes it, reads back through ReadFile
// unchanged in both the CSV and the JSONL format. A partition that cannot
// be written as an unquoted CSV field (a sacct pending job's "a,b" list)
// still round-trips through JSONL, and WriteCSV refuses it rather than
// write a file ReadFile cannot read.
func TestReadFileRoundTripsGeneratedTrace(t *testing.T) {
	simCfg := slurmsim.DefaultConfig(1)
	specs, err := workload.Generate(workload.DefaultConfig(1500, 3), &simCfg.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := slurmsim.Run(simCfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, write := range map[string]func(*os.File) error{
		"trace.csv":   func(f *os.File) error { return tr.WriteCSV(f) },
		"trace.jsonl": func(f *os.File) error { return tr.WriteJSONL(f) },
	} {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := trace.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Jobs, tr.Jobs) {
			t.Fatalf("%s: %d jobs read back differ from the %d written", name, len(got.Jobs), len(tr.Jobs))
		}
	}

	odd := &trace.Trace{Jobs: append([]trace.Job(nil), tr.Jobs[:3]...)}
	odd.Jobs[1].Partition = "a,b"
	path := filepath.Join(dir, "odd.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := odd.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := trace.ReadFile(path); err != nil || !reflect.DeepEqual(got.Jobs, odd.Jobs) {
		t.Fatalf("JSONL with partition %q: err %v, or jobs differ", odd.Jobs[1].Partition, err)
	}
	for _, p := range []string{"a,b", `"gpu"`, "gpu\nx", "gpu\r"} {
		odd.Jobs[1].Partition = p
		var buf bytes.Buffer
		if err := odd.WriteCSV(&buf); err == nil || !strings.Contains(err.Error(), "unquoted CSV field") {
			t.Errorf("WriteCSV of partition %q: err %v, want a refusal", p, err)
		}
	}
}
