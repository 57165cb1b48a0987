package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// maxReportedRowErrors caps how many per-row errors a ReadReport retains,
// so a thoroughly corrupt file cannot balloon memory.
const maxReportedRowErrors = 10

// RowError records one rejected record from a tolerant read.
type RowError struct {
	// Line is the 1-based line number of the bad record.
	Line int
	// Err is the parse failure, stringified so reports serialize cleanly.
	Err string
}

// ReadReport summarizes a tolerant ingestion pass.
type ReadReport struct {
	// Accepted is the number of records parsed successfully.
	Accepted int
	// Skipped is the number of malformed records dropped.
	Skipped int
	// Errors holds the first few row errors (capped) for diagnostics.
	Errors []RowError
}

func (r *ReadReport) reject(line int, err error) {
	r.Skipped++
	if len(r.Errors) < maxReportedRowErrors {
		r.Errors = append(r.Errors, RowError{Line: line, Err: err.Error()})
	}
}

// budgetExceeded reports whether the bad-row budget is exhausted
// (maxBad < 0 means unlimited).
func budgetExceeded(skipped, maxBad int) bool {
	return maxBad >= 0 && skipped > maxBad
}

// ReadCSVTolerant parses a WriteCSV-format trace, skipping malformed
// rows — wrong field counts or unparseable values — instead of aborting,
// up to a budget of maxBad rows (negative means unlimited, 0 means
// strict). It fails only on an unreadable header, an I/O error,
// or an exhausted budget. The returned report is non-nil even on error.
//
// Rows are split on commas directly rather than through encoding/csv:
// WriteCSV never quotes fields, and a line-oriented scan lets one mangled
// row (e.g. a stray quote from a truncated sacct export) be dropped
// without derailing the records after it.
func ReadCSVTolerant(r io.Reader, maxBad int) (*Trace, *ReadReport, error) {
	rep := &ReadReport{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, rep, fmt.Errorf("trace: reading CSV header: %w", err)
		}
		return nil, rep, fmt.Errorf("trace: empty CSV input")
	}
	header := strings.Split(strings.TrimRight(sc.Text(), "\r"), ",")
	if len(header) != len(csvHeader) {
		return nil, rep, fmt.Errorf("trace: CSV header has %d fields, want %d", len(header), len(csvHeader))
	}
	t := &Trace{}
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), "\r")
		if text == "" {
			continue
		}
		j, err := parseCSVRecord(strings.Split(text, ","))
		if err != nil {
			rep.reject(line, err)
			if budgetExceeded(rep.Skipped, maxBad) {
				return nil, rep, fmt.Errorf("trace: CSV line %d: %w (bad-row budget of %d exhausted)", line, err, maxBad)
			}
			continue
		}
		rep.Accepted++
		t.Jobs = append(t.Jobs, j)
	}
	if err := sc.Err(); err != nil {
		return nil, rep, fmt.Errorf("trace: reading CSV: %w", err)
	}
	return t, rep, nil
}

// ReadJSONLTolerant parses a JSONL trace, one Job object per line,
// skipping lines that fail to decode instead of aborting, up to a budget
// of maxBad rows (negative means unlimited, 0 means strict). Blank lines
// are ignored and do not count against the budget.
func ReadJSONLTolerant(r io.Reader, maxBad int) (*Trace, *ReadReport, error) {
	rep := &ReadReport{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 4<<20)
	t := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var j Job
		if err := json.Unmarshal([]byte(text), &j); err != nil {
			rep.reject(line, err)
			if budgetExceeded(rep.Skipped, maxBad) {
				return nil, rep, fmt.Errorf("trace: JSONL line %d: %w (bad-row budget of %d exhausted)", line, err, maxBad)
			}
			continue
		}
		rep.Accepted++
		t.Jobs = append(t.Jobs, j)
	}
	if err := sc.Err(); err != nil {
		return nil, rep, fmt.Errorf("trace: reading JSONL: %w", err)
	}
	return t, rep, nil
}
