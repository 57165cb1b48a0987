package trace

import (
	"bytes"
	"strings"
	"testing"
)

// tolerantFixture builds a small valid trace plus its CSV and JSONL
// encodings for corruption tests.
func tolerantFixture(t *testing.T) (*Trace, string, string) {
	t.Helper()
	tr := &Trace{}
	for i := 1; i <= 5; i++ {
		tr.Jobs = append(tr.Jobs, Job{
			ID: i, User: i % 2, Partition: "shared", State: StateCompleted,
			Submit: 1000, Eligible: 1000, Start: 1100, End: 1200,
			ReqCPUs: 4, ReqMemGB: 8, ReqNodes: 1, TimeLimit: 3600, Priority: 100,
		})
	}
	var csvBuf, jsonlBuf bytes.Buffer
	if err := tr.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&jsonlBuf); err != nil {
		t.Fatal(err)
	}
	return tr, csvBuf.String(), jsonlBuf.String()
}

func TestReadCSVTolerantCleanInput(t *testing.T) {
	tr, csvText, _ := tolerantFixture(t)
	got, rep, err := ReadCSVTolerant(strings.NewReader(csvText), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != len(tr.Jobs) || rep.Skipped != 0 {
		t.Fatalf("report %+v", rep)
	}
	if len(got.Jobs) != len(tr.Jobs) || got.Jobs[2] != tr.Jobs[2] {
		t.Fatalf("round trip mismatch: %+v", got.Jobs)
	}
}

func TestReadCSVTolerantSkipsCorruptRows(t *testing.T) {
	_, csvText, _ := tolerantFixture(t)
	lines := strings.Split(strings.TrimSpace(csvText), "\n")
	// Corrupt row 2 (garbage ID), truncate row 4, and append noise.
	lines[2] = strings.Replace(lines[2], "2,", "twelve,", 1)
	lines[4] = "3,0,shared"
	lines = append(lines, `"unterminated,quote,garbage`)
	in := strings.Join(lines, "\n")

	got, rep, err := ReadCSVTolerant(strings.NewReader(in), 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 3 || rep.Skipped != 3 {
		t.Fatalf("report %+v", rep)
	}
	if len(rep.Errors) != 3 {
		t.Fatalf("errors %+v", rep.Errors)
	}
	ids := []int{}
	for _, j := range got.Jobs {
		ids = append(ids, j.ID)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 3 || ids[2] != 5 {
		t.Fatalf("surviving IDs %v", ids)
	}
}

func TestReadCSVTolerantBudget(t *testing.T) {
	_, csvText, _ := tolerantFixture(t)
	lines := strings.Split(strings.TrimSpace(csvText), "\n")
	lines[1] = "garbage"
	lines[2] = "more garbage"
	in := strings.Join(lines, "\n")

	if _, rep, err := ReadCSVTolerant(strings.NewReader(in), 1); err == nil {
		t.Fatal("budget of 1 with 2 bad rows must fail")
	} else if rep.Skipped != 2 {
		t.Fatalf("report %+v", rep)
	}
	// Strict mode: any bad row fails.
	if _, _, err := ReadCSVTolerant(strings.NewReader(in), 0); err == nil {
		t.Fatal("strict mode accepted a bad row")
	}
	// Unlimited budget: reads the rest.
	got, rep, err := ReadCSVTolerant(strings.NewReader(in), -1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 2 || len(got.Jobs) != 3 {
		t.Fatalf("report %+v jobs %d", rep, len(got.Jobs))
	}
}

func TestReadCSVTolerantHeaderErrors(t *testing.T) {
	if _, _, err := ReadCSVTolerant(strings.NewReader(""), -1); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, _, err := ReadCSVTolerant(strings.NewReader("id,user\n1,2\n"), -1); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestReadJSONLTolerantSkipsCorruptRows(t *testing.T) {
	tr, _, jsonlText := tolerantFixture(t)
	lines := strings.Split(strings.TrimSpace(jsonlText), "\n")
	lines[1] = `{"id": 2, "partition": truncated`
	lines = append(lines, "", "not json at all")
	in := strings.Join(lines, "\n")

	got, rep, err := ReadJSONLTolerant(strings.NewReader(in), 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 4 || rep.Skipped != 2 {
		t.Fatalf("report %+v", rep)
	}
	if len(got.Jobs) != 4 || got.Jobs[0] != tr.Jobs[0] || got.Jobs[1] != tr.Jobs[2] {
		t.Fatalf("surviving jobs %+v", got.Jobs)
	}
	for _, re := range rep.Errors {
		if re.Line == 0 || re.Err == "" {
			t.Fatalf("unpopulated row error %+v", re)
		}
	}
}

func TestReadJSONLTolerantBudget(t *testing.T) {
	in := "junk1\njunk2\njunk3\n"
	if _, rep, err := ReadJSONLTolerant(strings.NewReader(in), 2); err == nil {
		t.Fatal("budget of 2 with 3 bad rows must fail")
	} else if rep.Skipped != 3 {
		t.Fatalf("report %+v", rep)
	}
	got, rep, err := ReadJSONLTolerant(strings.NewReader(in), -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != 0 || rep.Skipped != 3 {
		t.Fatalf("jobs %d report %+v", len(got.Jobs), rep)
	}
}

func TestReadJSONLTolerantMatchesStrictOnCleanInput(t *testing.T) {
	tr, _, jsonlText := tolerantFixture(t)
	tolerant, rep, err := ReadJSONLTolerant(strings.NewReader(jsonlText), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tolerant.Jobs) != len(tr.Jobs) {
		t.Fatalf("wrote %d jobs, read %d", len(tr.Jobs), len(tolerant.Jobs))
	}
	if rep.Skipped != 0 {
		t.Fatalf("report %+v", rep)
	}
	for i := range tr.Jobs {
		if tr.Jobs[i] != tolerant.Jobs[i] {
			t.Fatalf("job %d differs", i)
		}
	}
}
