package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	trout "repro"
	"repro/internal/livestate"
	"repro/internal/trace"
)

// The checks run on every response while the clock is running, so they
// look for the fields by name in the bytes; the oracle, before timing,
// decodes the whole body.

var (
	keyTierNN  = []byte(`"tier":"nn"`)
	keyLive    = []byte(`"snapshot_source":"live"`)
	keyProb    = []byte(`"prob":`)
	keyPending = []byte(`"pending_in_snapshot":`)
	keyApplied = []byte(`"applied":`)
	keyNow     = []byte(`"now":`)
	keyReject  = []byte(`"rejected"`)
	keyBad     = []byte(`"bad_lines"`)
)

// numberAfter returns the JSON number that follows key, and where it ends.
func numberAfter(body, key []byte) ([]byte, int) {
	i := bytes.Index(body, key)
	if i < 0 {
		return nil, -1
	}
	i += len(key)
	j := i
	for j < len(body) && body[j] != ',' && body[j] != '}' {
		j++
	}
	return body[i:j], j
}

// validPredictions checks a /predict (n = 1) or /predict/batch reply:
// 200, n answers from the neural-network tier on live state, every
// probability finite in [0, 1], and the expected queue depth (pending < 0
// skips that check, for state that changes between requests).
func validPredictions(status int, body []byte, n, pending int) bool {
	if status != 200 || !bytes.Contains(body, keyLive) || bytes.Count(body, keyTierNN) != n {
		return false
	}
	rest := body
	for k := 0; k < n; k++ {
		tok, end := numberAfter(rest, keyProb)
		p, err := strconv.ParseFloat(string(tok), 64)
		if end < 0 || err != nil || math.IsNaN(p) || p < 0 || p > 1 {
			return false
		}
		rest = rest[end:]
	}
	if pending >= 0 {
		tok, _ := numberAfter(body, keyPending)
		if got, err := strconv.Atoi(string(tok)); err != nil || got != pending {
			return false
		}
	}
	return true
}

// validEvents checks an /events acknowledgement: 200, every event applied,
// none rejected or undecodable. It returns the engine clock acknowledged.
func validEvents(status int, body []byte, applied int) (int64, bool) {
	if status != 200 || bytes.Contains(body, keyReject) || bytes.Contains(body, keyBad) {
		return 0, false
	}
	tok, _ := numberAfter(body, keyApplied)
	if got, err := strconv.Atoi(string(tok)); err != nil || got != applied {
		return 0, false
	}
	tok, _ = numberAfter(body, keyNow)
	now, err := strconv.ParseInt(string(tok), 10, 64)
	return now, err == nil
}

// answer is the part of a prediction the oracle compares field for field.
type answer struct {
	Long    bool     `json:"long"`
	Prob    float64  `json:"prob"`
	Minutes float64  `json:"minutes"`
	Tier    string   `json:"tier"`
	Source  string   `json:"snapshot_source"`
	Pending int      `json:"pending_in_snapshot"`
	Results []answer `json:"results"`
}

// oracle predicts in this process what the daemon must answer: the same
// bundle file on the same float32 path, over an engine fed the same events.
type oracle struct {
	b   *trout.Bundle
	eng *livestate.Engine
}

func newOracle(bundlePath string, st *state) (*oracle, error) {
	b, err := trout.LoadBundleFile(bundlePath)
	if err != nil {
		return nil, err
	}
	if !b.EnableFastInference() {
		return nil, fmt.Errorf("oracle: bundle does not compile onto the float32 path the daemon serves from")
	}
	o := &oracle{b: b, eng: livestate.NewEngine()}
	return o, o.apply(st.jsonl, st.events)
}

// applyJSONL decodes JSONL events exactly as /events does and hands each
// to apply, insisting that all want of them were accepted.
func applyJSONL(jsonl []byte, want int, apply func(livestate.Event) error) error {
	n := 0
	for _, line := range bytes.Split(jsonl, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		ev, err := livestate.DecodeEvent(line)
		if err != nil {
			return err
		}
		if err := apply(ev); err != nil {
			return fmt.Errorf("generated event rejected: %w", err)
		}
		n++
	}
	if n != want {
		return fmt.Errorf("applied %d events, want %d", n, want)
	}
	return nil
}

// apply feeds JSONL events to the oracle's engine.
func (o *oracle) apply(jsonl []byte, want int) error {
	return applyJSONL(jsonl, want, o.eng.ApplyEvent)
}

// expect is the answer for a hypothetical job at an instant, with the
// handler's defaulting of the job's submit and eligible times.
func (o *oracle) expect(j trace.Job, at int64) (answer, error) {
	j.Submit, j.Eligible = at, at
	return o.predict(o.eng.SnapshotAt(j, at))
}

func (o *oracle) expectJob(id int) (answer, error) {
	snap, err := o.eng.SnapshotForJob(id)
	if err != nil {
		return answer{}, err
	}
	return o.predict(snap)
}

func (o *oracle) predict(snap *trout.Snapshot) (answer, error) {
	p, err := o.b.PredictWithFallback(snap)
	if err != nil {
		return answer{}, err
	}
	return answer{Long: p.Long, Prob: p.Prob, Minutes: p.Minutes, Tier: p.Tier, Source: "live", Pending: len(snap.Pending)}, nil
}

// same compares one served answer with the oracle's, bit for bit.
func same(got, want answer) error {
	if got.Long != want.Long || got.Prob != want.Prob || got.Minutes != want.Minutes || got.Tier != want.Tier {
		return fmt.Errorf("served long=%v prob=%v minutes=%v tier=%q, oracle long=%v prob=%v minutes=%v tier=%q",
			got.Long, got.Prob, got.Minutes, got.Tier, want.Long, want.Prob, want.Minutes, want.Tier)
	}
	return nil
}

// checkSingle compares a /predict reply with the oracle's answer.
func checkSingle(status int, body []byte, want answer) error {
	if status != 200 {
		return fmt.Errorf("HTTP %d: %s", status, body)
	}
	var got answer
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got.Source != want.Source || got.Pending != want.Pending {
		return fmt.Errorf("served source=%q pending=%d, oracle source=%q pending=%d", got.Source, got.Pending, want.Source, want.Pending)
	}
	return same(got, want)
}

// checkBatch compares every item of a /predict/batch reply with the
// oracle's single-job answer: batch item ≡ single.
func checkBatch(status int, body []byte, want []answer) error {
	if status != 200 {
		return fmt.Errorf("HTTP %d: %s", status, body)
	}
	var got answer
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if len(got.Results) != len(want) {
		return fmt.Errorf("batch of %d answered with %d results", len(want), len(got.Results))
	}
	if got.Source != "live" || got.Pending != want[0].Pending {
		return fmt.Errorf("batch served source=%q pending=%d, oracle live/%d", got.Source, got.Pending, want[0].Pending)
	}
	for i := range want {
		if err := same(got.Results[i], want[i]); err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
	}
	return nil
}
