// Package livestate maintains live cluster queue state from a stream of
// typed job events — the shape real Slurm deployments emit (and that
// exporters scrape) rather than whole accounting traces. An Engine applies
// submit/eligible/start/end/cancel events to per-partition indexed state so
// that extracting a features.Snapshot for a target job costs O(log n + k)
// in the active-queue size k instead of O(N) in the full trace, and a Store
// wraps the engine with a length-prefixed write-ahead log plus periodic gob
// checkpoints so a restarted daemon recovers its state by replaying
// checkpoint + WAL tail. Build replays a trace through an Engine to make
// the training set, so a model trains on the rows the daemon serves.
package livestate

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/trace"
)

// EventType names one kind of job lifecycle event.
type EventType string

// Job lifecycle events, in the order they occur for a normal job. Cancel
// may arrive at any point before end and terminates the job wherever it is.
const (
	EventSubmit   EventType = "submit"
	EventEligible EventType = "eligible"
	EventStart    EventType = "start"
	EventEnd      EventType = "end"
	EventCancel   EventType = "cancel"
)

// Event is one job lifecycle transition. Submit events carry the full job
// record (resources, priority, partition); later events reference the job
// by ID. Time is Unix seconds and is authoritative for the transition — a
// start event's Time becomes the job's Start.
type Event struct {
	Type  EventType `json:"type"`
	Time  int64     `json:"time"`
	JobID int       `json:"job_id,omitempty"`
	// Job is the submitted record (submit events only). Eligible, Start,
	// End, and State are ignored — the stream itself establishes them.
	Job *trace.Job `json:"job,omitempty"`
	// State is the terminal state for end events ("" = COMPLETED).
	State trace.JobState `json:"state,omitempty"`
}

// ID returns the job the event refers to.
func (ev *Event) ID() int {
	if ev.Type == EventSubmit && ev.Job != nil && ev.JobID == 0 {
		return ev.Job.ID
	}
	return ev.JobID
}

// Validate checks structural well-formedness (not state-machine order,
// which only the engine can judge).
func (ev *Event) Validate() error {
	switch ev.Type {
	case EventSubmit:
		if ev.Job == nil {
			return fmt.Errorf("livestate: submit event needs a job record")
		}
		if ev.Job.ID == 0 && ev.JobID == 0 {
			return fmt.Errorf("livestate: submit event needs a job id")
		}
		if ev.Job.Partition == "" {
			return fmt.Errorf("livestate: submit event for job %d has no partition", ev.ID())
		}
	case EventEligible, EventStart, EventEnd, EventCancel:
		if ev.JobID == 0 {
			return fmt.Errorf("livestate: %s event needs job_id", ev.Type)
		}
	default:
		return fmt.Errorf("livestate: unknown event type %q", ev.Type)
	}
	if ev.Time <= 0 {
		return fmt.Errorf("livestate: %s event for job %d needs a positive time", ev.Type, ev.ID())
	}
	return nil
}

// DecodeEvent parses one JSONL event line and validates it. The line is
// read with trace.JSONReader; anything outside its subset is re-parsed by
// json.Unmarshal, whose result and error text are the contract.
func DecodeEvent(line []byte) (Event, error) {
	var ev Event
	if r := trace.NewJSONReader(line); !readEvent(&r, &ev) || !r.End() {
		var std Event // not ev: what json.Unmarshal is handed escapes
		if err := json.Unmarshal(line, &std); err != nil {
			return Event{}, fmt.Errorf("livestate: decode event: %w", err)
		}
		ev = std
	}
	if err := ev.Validate(); err != nil {
		return Event{}, err
	}
	return ev, nil
}

// readEvent reads an Event object into ev. type must be one of the five
// constants (anything else bails), and a repeated "job" merges into the
// record already read, as in encoding/json.
func readEvent(r *trace.JSONReader, ev *Event) bool {
	return r.Object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "type":
			ev.Type, ok = readEventType(r)
		case "time":
			ev.Time, ok = r.Int64()
		case "job_id":
			ev.JobID, ok = r.Int()
		case "job":
			if ev.Job == nil {
				ev.Job = new(trace.Job)
			}
			ok = r.Job(ev.Job)
		case "state":
			ev.State, ok = r.State()
		}
		return ok
	})
}

func readEventType(r *trace.JSONReader) (EventType, bool) {
	s, ok := r.Str()
	for _, t := range [...]EventType{EventSubmit, EventEligible, EventStart, EventEnd, EventCancel} {
		if string(s) == string(t) {
			return t, ok
		}
	}
	return "", false
}

// WriteEvents serializes events as JSONL, one event per line.
func WriteEvents(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return nil
}

// EventsFromTrace derives the event stream a live scheduler would have
// emitted for the jobs in a trace, sorted by time (ties keep per-job
// lifecycle order, then trace order). Open intervals are respected: a job
// with Start == 0 yields no start event, End == 0 no terminal event — so
// replaying the stream reproduces a live queue containing those jobs.
func EventsFromTrace(tr *trace.Trace) []Event {
	events := make([]Event, 0, 4*len(tr.Jobs))
	for i := range tr.Jobs {
		j := tr.Jobs[i]
		if j.Submit <= 0 {
			continue
		}
		sub := j
		sub.Eligible, sub.Start, sub.End = 0, 0, 0
		sub.State = ""
		events = append(events, Event{Type: EventSubmit, Time: j.Submit, Job: &sub})
		if j.Eligible > 0 {
			events = append(events, Event{Type: EventEligible, Time: j.Eligible, JobID: j.ID})
		}
		if j.Start > 0 {
			events = append(events, Event{Type: EventStart, Time: j.Start, JobID: j.ID})
		}
		if j.End > 0 {
			if j.State == trace.StateCancelled {
				events = append(events, Event{Type: EventCancel, Time: j.End, JobID: j.ID})
			} else {
				events = append(events, Event{Type: EventEnd, Time: j.End, JobID: j.ID, State: j.State})
			}
		}
	}
	slices.SortStableFunc(events, func(a, b Event) int { return cmp.Compare(a.Time, b.Time) })
	return events
}

// Phase is a job's position in its lifecycle at some instant.
type Phase uint8

// Lifecycle phases as observed at an instant.
const (
	PhaseNone      Phase = iota // not yet submitted (or invalid record)
	PhaseSubmitted              // submitted, not yet eligible
	PhasePending                // eligible, waiting to start
	PhaseRunning                // executing
	PhaseDone                   // reached a terminal state
)

// PhaseAt classifies a job record at instant t, treating zero Start/End as
// open intervals: a record with Start == 0 is still waiting, End == 0 still
// running — the shape live traces have for jobs that are genuinely pending
// or executing at capture time. (The closed-interval checks `t < Start`
// and `t < End` silently drop such jobs: any t satisfies neither.)
func PhaseAt(j *trace.Job, t int64) Phase {
	switch {
	case j.End != 0 && t >= j.End:
		return PhaseDone
	case j.Start != 0 && t >= j.Start:
		return PhaseRunning
	case j.Eligible != 0 && t >= j.Eligible:
		return PhasePending
	case j.Submit != 0 && t >= j.Submit:
		return PhaseSubmitted
	}
	return PhaseNone
}
