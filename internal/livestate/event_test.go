package livestate

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/trace"
)

func mkJob(id, user int, part string, submit, eligible, start, end int64) trace.Job {
	return trace.Job{
		ID: id, User: user, Partition: part, State: trace.StateCompleted,
		Submit: submit, Eligible: eligible, Start: start, End: end,
		ReqCPUs: 4, ReqMemGB: 8, ReqNodes: 1, TimeLimit: 3600, Priority: 1000,
	}
}

func TestDecodeEventValidation(t *testing.T) {
	cases := []struct {
		name string
		line string
		ok   bool
	}{
		{"submit ok", `{"type":"submit","time":100,"job":{"id":1,"partition":"shared"}}`, true},
		{"submit no job", `{"type":"submit","time":100}`, false},
		{"submit no partition", `{"type":"submit","time":100,"job":{"id":1}}`, false},
		{"start ok", `{"type":"start","time":100,"job_id":1}`, true},
		{"start no id", `{"type":"start","time":100}`, false},
		{"zero time", `{"type":"end","time":0,"job_id":1}`, false},
		{"negative time", `{"type":"end","time":-5,"job_id":1}`, false},
		{"unknown type", `{"type":"requeue","time":100,"job_id":1}`, false},
		{"not json", `{nope`, false},
		{"end with state", `{"type":"end","time":9,"job_id":2,"state":"FAILED"}`, true},
	}
	for _, c := range cases {
		_, err := DecodeEvent([]byte(c.line))
		if (err == nil) != c.ok {
			t.Errorf("%s: err=%v want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestEventsFromTraceOrderAndShape(t *testing.T) {
	tr := &trace.Trace{Jobs: []trace.Job{
		mkJob(1, 7, "shared", 100, 100, 200, 300),
		mkJob(2, 7, "shared", 150, 160, 0, 0), // still pending: no start/end
		func() trace.Job {
			j := mkJob(3, 8, "gpu", 120, 130, 0, 180) // cancelled before start
			j.State = trace.StateCancelled
			return j
		}(),
		func() trace.Job {
			j := mkJob(4, 8, "gpu", 110, 115, 140, 0) // still running: no end
			return j
		}(),
	}}
	evs := EventsFromTrace(tr)
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			t.Fatalf("events out of order at %d: %d after %d", i, evs[i].Time, evs[i-1].Time)
		}
	}
	count := map[EventType]int{}
	for i := range evs {
		count[evs[i].Type]++
		if evs[i].Type == EventSubmit {
			j := evs[i].Job
			if j.Eligible != 0 || j.Start != 0 || j.End != 0 || j.State != "" {
				t.Fatalf("submit payload leaks outcome fields: %+v", j)
			}
		}
	}
	want := map[EventType]int{EventSubmit: 4, EventEligible: 4, EventStart: 2, EventEnd: 1, EventCancel: 1}
	if !reflect.DeepEqual(count, want) {
		t.Fatalf("event counts %v, want %v", count, want)
	}
}

func TestWriteEventsRoundtrip(t *testing.T) {
	tr := &trace.Trace{Jobs: []trace.Job{mkJob(1, 7, "shared", 100, 100, 200, 300)}}
	evs := EventsFromTrace(tr)
	var buf bytes.Buffer
	if err := WriteEvents(&buf, evs); err != nil {
		t.Fatal(err)
	}
	var back []Event
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		ev, err := DecodeEvent(line)
		if err != nil {
			t.Fatalf("decode %q: %v", line, err)
		}
		back = append(back, ev)
	}
	if !reflect.DeepEqual(evs, back) {
		t.Fatalf("roundtrip mismatch:\n%+v\n%+v", evs, back)
	}
}

func TestPhaseAtOpenIntervals(t *testing.T) {
	pendingJob := mkJob(1, 1, "shared", 100, 110, 0, 0)
	runningJob := mkJob(2, 1, "shared", 100, 110, 120, 0)
	doneJob := mkJob(3, 1, "shared", 100, 110, 120, 130)
	cancelled := mkJob(4, 1, "shared", 100, 110, 0, 125)
	cases := []struct {
		j    trace.Job
		at   int64
		want Phase
	}{
		{pendingJob, 99, PhaseNone},
		{pendingJob, 105, PhaseSubmitted},
		{pendingJob, 110, PhasePending},
		{pendingJob, 1e9, PhasePending}, // open interval: pending forever until events say otherwise
		{runningJob, 115, PhasePending},
		{runningJob, 120, PhaseRunning},
		{runningJob, 1e9, PhaseRunning},
		{doneJob, 125, PhaseRunning},
		{doneJob, 130, PhaseDone},
		{cancelled, 120, PhasePending},
		{cancelled, 125, PhaseDone},
	}
	for i, c := range cases {
		if got := PhaseAt(&c.j, c.at); got != c.want {
			t.Errorf("case %d: PhaseAt(job %d, %d) = %d, want %d", i, c.j.ID, c.at, got, c.want)
		}
	}
}

// FuzzDecodeEvent holds the reader to encoding/json: whatever readEvent
// accepts, json.Unmarshal accepts too, with the same Event. It also asserts
// the decoder never panics and that every accepted event re-encodes to
// something that decodes to the same value.
func FuzzDecodeEvent(f *testing.F) {
	f.Add([]byte(`{"type":"submit","time":100,"job":{"id":1,"partition":"shared","req_cpus":4}}`))
	f.Add([]byte(`{"type":"eligible","time":101,"job_id":1}`))
	f.Add([]byte(`{"type":"start","time":102,"job_id":1}`))
	f.Add([]byte(`{"type":"end","time":103,"job_id":1,"state":"TIMEOUT"}`))
	f.Add([]byte(`{"type":"cancel","time":104,"job_id":1}`))
	f.Add([]byte(`{"type":"submit","time":-1}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	for _, line := range []string{
		// Numerals JSON forbids, and one it allows.
		`{"type":"start","time":0104,"job_id":1}`,
		`{"type":"start","time":-07,"job_id":1}`,
		`{"type":"submit","time":1,"job":{"id":1,"partition":"p","req_mem_gb":1.}}`,
		`{"type":"submit","time":1,"job":{"id":1,"partition":"p","req_mem_gb":01.5}}`,
		`{"type":"submit","time":1,"job":{"id":1,"partition":"p","req_mem_gb":1.e3}}`,
		`{"type":"submit","time":1,"job":{"id":1,"partition":"p","req_mem_gb":2.5E+1}}`,
		// A repeated job merges; a repeated scalar is last-wins.
		`{"type":"submit","time":1,"job":{"id":1,"req_cpus":4},"job":{"partition":"p"}}`,
		`{"type":"start","time":1,"time":2,"job_id":1,"job_id":3}`,
		// Keys, strings and literals outside the reader's subset.
		`{"Type":"start","time":1,"job_id":1}`,
		`{"type":"start","TIME":1,"job_id":1}`,
		`{"type":"st\u0061rt","time":1,"job_id":1}`,
		`{"type":"end","time":1,"job_id":1,"state":"F\u0041ILED"}`,
		`{"type":"submit","time":1,"job":{"id":1,"partition":"gr\u00f6\u00dfe"}}`,
		`{"type":"start","time":1,"job_id":null}`,
		`{"type":"submit","time":1,"job":null}`,
		`{"type":"requeue","time":1,"job_id":1}`,
		`{"type":"start","time":1,"job_id":1,"extra":[1,{"a":null}]}`,
		// Fields the int32 guard or int64 range leaves to encoding/json.
		`{"type":"start","time":1,"job_id":2147483648}`,
		`{"type":"submit","time":1,"job":{"id":1,"partition":"p","req_cpus":-2147483649}}`,
		`{"type":"start","time":9223372036854775807,"job_id":1}`,
		`{"type":"start","time":-9223372036854775808,"job_id":1}`,
		`{"type":"start","time":9223372036854775808,"job_id":1}`,
		// Floats in int fields; a bad literal.
		`{"type":"start","time":1.0,"job_id":1}`,
		`{"type":"start","time":1e3,"job_id":1}`,
		`{"type":"submit","time":1,"job":{"id":1,"partition":"p","interactive":tru}}`,
		// Trailing garbage and leading whitespace.
		`{"type":"start","time":1,"job_id":1} x`,
		`{"type":"start","time":1,"job_id":1}{}`,
		" \t\r\n{\"type\":\"start\",\"time\":1,\"job_id\":1} \n",
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var fast Event
		if r := trace.NewJSONReader(line); readEvent(&r, &fast) && r.End() {
			var want Event
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("reader accepted %q, json.Unmarshal refused: %v", line, err)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("%q:\n reader %+v (job %+v)\n json   %+v (job %+v)", line, fast, fast.Job, want, want.Job)
			}
		}
		ev, err := DecodeEvent(line)
		if err != nil {
			return
		}
		out, err := json.Marshal(&ev)
		if err != nil {
			t.Fatalf("accepted event fails to marshal: %v", err)
		}
		ev2, err := DecodeEvent(out)
		if err != nil {
			t.Fatalf("re-encoded event rejected: %v (from %q)", err, out)
		}
		if !reflect.DeepEqual(ev, ev2) {
			t.Fatalf("roundtrip mismatch: %+v vs %+v", ev, ev2)
		}
		// Accepted events must always be applicable without panicking.
		_ = NewEngine().ApplyEvent(ev)
	})
}

// A warm DecodeEvent allocates only what the Event keeps: nothing for the
// four job_id events, the Job and its partition string for a submit.
func TestDecodeEventAllocs(t *testing.T) {
	for line, want := range map[string]float64{
		`{"type":"submit","time":100,"job":{"id":7,"user":3,"partition":"shared","state":"","submit":100,"eligible":0,"start":0,"end":0,"req_cpus":8,"req_mem_gb":16.5,"req_nodes":1,"req_gpus":0,"time_limit":7200,"priority":3000,"qos":1,"interactive":false}}`: 2,
		`{"type":"eligible","time":101,"job_id":7}`:              0,
		`{"type":"start","time":102,"job_id":7}`:                 0,
		`{"type":"end","time":103,"job_id":7,"state":"TIMEOUT"}`: 0,
		`{"type":"cancel","time":104,"job_id":7}`:                0,
	} {
		b := []byte(line)
		got := testing.AllocsPerRun(100, func() {
			if _, err := DecodeEvent(b); err != nil {
				t.Fatal(err)
			}
		})
		if got > want {
			t.Errorf("%s: %.1f allocs, want <= %.0f", line, got, want)
		}
	}
}
