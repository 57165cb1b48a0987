package livestate

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// checkWALEncode requires appendWALRecord to agree with json.Marshal of the
// same walRecord: same bytes, or an error on both sides. What it writes,
// the reader decodes as json.Unmarshal does.
func checkWALEncode(t *testing.T, lsn uint64, ev Event) {
	t.Helper()
	want, werr := json.Marshal(&walRecord{LSN: lsn, Event: ev})
	got, gerr := appendWALRecord([]byte("prefix"), lsn, &ev)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("encoder error %v, json.Marshal error %v", gerr, werr)
	}
	if gerr != nil {
		return
	}
	if string(got) != "prefix"+string(want) {
		t.Fatalf("encoder diverges from json.Marshal:\n got %s\nwant prefix%s", got, want)
	}
	checkWALDecode(t, want)
}

// checkWALDecode requires that a payload the reader accepts, json.Unmarshal
// accepts too, with the same record.
func checkWALDecode(t *testing.T, payload []byte) {
	t.Helper()
	var fast walRecord
	if !readWALRecord(payload, &fast) {
		return
	}
	var want walRecord
	if err := json.Unmarshal(payload, &want); err != nil {
		t.Fatalf("reader accepted %q, json.Unmarshal refused: %v", payload, err)
	}
	if !reflect.DeepEqual(fast, want) {
		t.Fatalf("%q:\n reader %+v\n json   %+v", payload, fast, want)
	}
}

func TestWALEncodeMatchesJSON(t *testing.T) {
	full := trace.Job{
		ID: 7, User: -3, Partition: "shared", State: trace.StateTimeout,
		Submit: 1700000000, Eligible: 1700000001, Start: 1700000002, End: 1700000003,
		ReqCPUs: 128, ReqMemGB: 257.5, ReqNodes: 2, ReqGPUs: 4, TimeLimit: 86400,
		Priority: math.MaxInt64, QOS: 2, Interactive: true, DependsOn: 6,
	}
	withMem := func(m float64) *trace.Job { j := full; j.ReqMemGB = m; return &j }
	withPartition := func(p string) *trace.Job { j := full; j.Partition = p; return &j }
	cases := map[string]Event{
		"submit, omitempty fields zero":    {Type: EventSubmit, Time: 1000, Job: &trace.Job{ID: 1, Partition: "gpu"}},
		"submit, every field set":          {Type: EventSubmit, Time: 1000, Job: &full},
		"submit with job_id":               {Type: EventSubmit, Time: 1000, JobID: 7, Job: &full},
		"eligible":                         {Type: EventEligible, Time: 1001, JobID: 7},
		"start":                            {Type: EventStart, Time: 1002, JobID: 7},
		"end, default state":               {Type: EventEnd, Time: 1003, JobID: 7},
		"end, explicit state":              {Type: EventEnd, Time: 1003, JobID: 7, State: trace.StateFailed},
		"cancel":                           {Type: EventCancel, Time: 1004, JobID: 7},
		"negative time, no job":            {Type: EventStart, Time: math.MinInt64},
		"unknown type":                     {Type: "resize", Time: 5, JobID: 1},
		"type needing an escape":           {Type: "a\"b", Time: 5, JobID: 1},
		"state needing an escape":          {Type: EventEnd, Time: 5, JobID: 1, State: "NODE\\FAIL"},
		"partition with a quote":           {Type: EventSubmit, Time: 5, Job: withPartition(`sh"ared`)},
		"partition with an HTML character": {Type: EventSubmit, Time: 5, Job: withPartition("a<b")},
		"partition with non-ASCII":         {Type: EventSubmit, Time: 5, Job: withPartition("größe")},
		"partition with invalid UTF-8":     {Type: EventSubmit, Time: 5, Job: withPartition("a\xffb")},
		"partition with a control byte":    {Type: EventSubmit, Time: 5, Job: withPartition("a\tb\x7f")},
		"req_mem_gb 0":                     {Type: EventSubmit, Time: 5, Job: withMem(0)},
		"req_mem_gb -0":                    {Type: EventSubmit, Time: 5, Job: withMem(math.Copysign(0, -1))},
		"req_mem_gb 0.1+0.2":               {Type: EventSubmit, Time: 5, Job: withMem(0.1 + 0.2)},
		"req_mem_gb 1e-6":                  {Type: EventSubmit, Time: 5, Job: withMem(1e-6)},
		"req_mem_gb 1e-7":                  {Type: EventSubmit, Time: 5, Job: withMem(1e-7)},
		"req_mem_gb just under 1e21":       {Type: EventSubmit, Time: 5, Job: withMem(math.Nextafter(1e21, 0))},
		"req_mem_gb 1e21":                  {Type: EventSubmit, Time: 5, Job: withMem(1e21)},
		"req_mem_gb negative":              {Type: EventSubmit, Time: 5, Job: withMem(-12.25)},
		"req_mem_gb NaN":                   {Type: EventSubmit, Time: 5, Job: withMem(math.NaN())},
		"req_mem_gb +Inf":                  {Type: EventSubmit, Time: 5, Job: withMem(math.Inf(1))},
	}
	for name, ev := range cases {
		t.Run(name, func(t *testing.T) { checkWALEncode(t, 42, ev) })
	}
	checkWALEncode(t, math.MaxUint64, cases["submit, every field set"])

	// The encoder spells the field list out by hand, so hold it to the
	// structs: a record with every field set, found by reflection, must
	// still match — a field added to Event or trace.Job fails here until
	// the encoder learns it.
	var rec walRecord
	rec.Event.Job = new(trace.Job)
	setAll(reflect.ValueOf(&rec).Elem())
	checkWALEncode(t, rec.LSN, rec.Event)
}

// setAll gives every field reachable from v a non-zero value.
func setAll(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			setAll(v.Field(i))
		}
	case reflect.Pointer:
		setAll(v.Elem())
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Int, reflect.Int64:
		v.SetInt(3)
	case reflect.Uint64:
		v.SetUint(3)
	default:
		panic("setAll: walRecord grew a field of kind " + v.Kind().String())
	}
}

func FuzzWALEncode(f *testing.F) {
	f.Add(uint64(1), "submit", int64(1000), 0, true, "shared", "", 8.0, int64(3600), false, "")
	f.Add(uint64(2), "end", int64(1001), 1, false, "", "", 0.0, int64(0), false, "TIMEOUT")
	f.Add(uint64(3), "submit", int64(-5), 9, true, "a<b\"\xff", "CANCELLED", 1e-7, int64(-1), true, "é")
	f.Add(uint64(4), "submit", int64(1), 0, true, "gpu", "", math.NaN(), int64(7), true, "")
	f.Fuzz(func(t *testing.T, lsn uint64, typ string, tm int64, jobID int, hasJob bool,
		part, jstate string, mem float64, n int64, flag bool, state string) {
		ev := Event{Type: EventType(typ), Time: tm, JobID: jobID, State: trace.JobState(state)}
		if hasJob {
			ev.Job = &trace.Job{
				ID: jobID ^ 1, User: int(n), Partition: part, State: trace.JobState(jstate),
				Submit: tm, Eligible: n, Start: -n, End: tm + 1,
				ReqCPUs: int(n >> 3), ReqMemGB: mem, ReqNodes: int(n & 7), ReqGPUs: int(n >> 60),
				TimeLimit: n, Priority: ^n, QOS: int(n % 5), Interactive: flag, DependsOn: int(n & 1),
			}
		}
		checkWALEncode(t, lsn, ev)
	})
}

// legacyFrame frames one record the way every WAL before the append-style
// encoder was written: json.Marshal of the walRecord. It is the oracle for
// the on-disk format.
func legacyFrame(t *testing.T, lsn uint64, ev Event) []byte {
	t.Helper()
	payload, err := json.Marshal(&walRecord{LSN: lsn, Event: ev})
	if err != nil {
		t.Fatal(err)
	}
	frame := binary.AppendUvarint(nil, uint64(len(payload)))
	frame = append(frame, payload...)
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
}

// TestLegacyWALRecoversAndMatches: a WAL written by the json.Marshal path
// recovers to the same engine as the live one, and a new store writes the
// very same bytes for the same events — old segments, new segments and
// replication frames are one format.
func TestLegacyWALRecoversAndMatches(t *testing.T) {
	tr := &trace.Trace{Jobs: []trace.Job{
		mkJob(1, 1, "shared", 1000, 1001, 1005, 1100),
		mkJob(2, 2, "gpu", 1002, 1002, 1010, 0),
		mkJob(3, 1, "größe", 1003, 1004, 0, 0), // takes the json.Marshal fallback
		mkJob(4, 3, "shared", 1004, 0, 0, 0),
	}}
	tr.Jobs[0].State = trace.StateTimeout
	tr.Jobs[1].ReqMemGB = 0.1 + 0.2
	tr.Jobs[3].DependsOn = 1
	events := EventsFromTrace(tr)
	events = append(events, Event{Type: EventCancel, Time: 1200, JobID: 4})

	var legacy []byte
	for i, ev := range events {
		legacy = append(legacy, legacyFrame(t, uint64(i+1), ev)...)
	}
	oldDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(oldDir, walFile), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := OpenStore(StoreOptions{Dir: oldDir})
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if rep := old.Recovered(); rep.Replayed != uint64(len(events)) || rep.TruncatedBytes != 0 {
		t.Fatalf("legacy WAL recovery %+v, want %d clean records", rep, len(events))
	}

	newDir := t.TempDir()
	s, err := OpenStore(StoreOptions{Dir: newDir})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(newDir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, legacy) {
		t.Fatalf("new store's WAL differs from the json.Marshal framing:\n got %q\nwant %q", written, legacy)
	}
	if a, b := old.Engine().Fingerprint(), s.Engine().Fingerprint(); a != b {
		t.Fatalf("engine recovered from the legacy WAL %x != live engine %x", a, b)
	}
}
