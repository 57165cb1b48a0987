package livestate

import (
	"encoding/json"
	"math"
	"strconv"
)

// appendWALRecord appends the JSON of walRecord{lsn, *ev} to dst, byte for
// byte what json.Marshal emits, without reflection. It writes only values
// whose encoding/json form it can reproduce with strconv; anything else —
// a string encoding/json would escape, a req_mem_gb it would print in
// exponent form or refuse — goes through json.Marshal itself, so the
// on-disk format has one definition (TestWALEncodeMatchesJSON holds the
// field list to the structs' by reflection).
func appendWALRecord(dst []byte, lsn uint64, ev *Event) ([]byte, error) {
	j := ev.Job
	if !jsonPlain(string(ev.Type)) || !jsonPlain(string(ev.State)) ||
		j != nil && !(jsonPlain(j.Partition) && jsonPlain(string(j.State)) && jsonPlainFloat(j.ReqMemGB)) {
		p, err := json.Marshal(&walRecord{LSN: lsn, Event: *ev})
		return append(dst, p...), err
	}
	dst = strconv.AppendUint(append(dst, `{"lsn":`...), lsn, 10)
	dst = append(append(dst, `,"event":{"type":"`...), ev.Type...)
	dst = appendInt(dst, `","time":`, ev.Time)
	if ev.JobID != 0 {
		dst = appendInt(dst, `,"job_id":`, int64(ev.JobID))
	}
	if j != nil {
		dst = appendInt(dst, `,"job":{"id":`, int64(j.ID))
		dst = appendInt(dst, `,"user":`, int64(j.User))
		dst = append(append(dst, `,"partition":"`...), j.Partition...)
		dst = append(append(dst, `","state":"`...), j.State...)
		dst = appendInt(dst, `","submit":`, j.Submit)
		dst = appendInt(dst, `,"eligible":`, j.Eligible)
		dst = appendInt(dst, `,"start":`, j.Start)
		dst = appendInt(dst, `,"end":`, j.End)
		dst = appendInt(dst, `,"req_cpus":`, int64(j.ReqCPUs))
		dst = strconv.AppendFloat(append(dst, `,"req_mem_gb":`...), j.ReqMemGB, 'f', -1, 64)
		dst = appendInt(dst, `,"req_nodes":`, int64(j.ReqNodes))
		dst = appendInt(dst, `,"req_gpus":`, int64(j.ReqGPUs))
		dst = appendInt(dst, `,"time_limit":`, j.TimeLimit)
		dst = appendInt(dst, `,"priority":`, j.Priority)
		dst = appendInt(dst, `,"qos":`, int64(j.QOS))
		dst = strconv.AppendBool(append(dst, `,"interactive":`...), j.Interactive)
		if j.DependsOn != 0 {
			dst = appendInt(dst, `,"depends_on":`, int64(j.DependsOn))
		}
		dst = append(dst, '}')
	}
	if ev.State != "" {
		dst = append(append(append(dst, `,"state":"`...), ev.State...), '"')
	}
	return append(dst, "}}"...), nil
}

func appendInt(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// jsonPlain reports whether encoding/json emits s between quotes unchanged:
// printable ASCII with none of the bytes it escapes (HTML-safe mode).
func jsonPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// jsonPlainFloat reports whether encoding/json prints f in plain 'f' form;
// it switches to exponent form outside [1e-6, 1e21) and refuses NaN/±Inf.
func jsonPlainFloat(f float64) bool {
	abs := math.Abs(f)
	return abs == 0 || abs >= 1e-6 && abs < 1e21
}
