package trace

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// JSONReader is a conservative single-pass JSON reader for job-shaped
// records: the /predict bodies, /events lines and WAL payloads. It reads a
// subset of JSON — exact-case keys, escape-free ASCII strings, numbers in
// RFC 8259 §6 form with integers only where the field is an integer — and
// reports ok=false on anything else (null, escapes, unknown or
// differently-cased keys, overflow, a numeral JSON forbids). The caller then
// re-parses with encoding/json, which rules: every value the reader accepts,
// encoding/json accepts too and decodes to the same Go value, so the
// fallback alone decides error text. Nothing is allocated except the
// strings a caller keeps.
type JSONReader struct {
	b []byte
	i int
}

// NewJSONReader reads b from its start.
func NewJSONReader(b []byte) JSONReader { return JSONReader{b: b} }

func (r *JSONReader) ws() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

func (r *JSONReader) eat(c byte) bool {
	r.ws()
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// End reports whether only whitespace is left: json.Unmarshal's rule for
// what may follow a value.
func (r *JSONReader) End() bool {
	r.ws()
	return r.i == len(r.b)
}

// Object reads one object, calling field for each key with the reader
// positioned at its value; field reads the value and returns false to
// bail. A repeated key calls field again, so scalars end last-wins and a
// nested object decoded into the same destination merges, as in
// encoding/json.
func (r *JSONReader) Object(field func(key []byte) bool) bool {
	if !r.eat('{') {
		return false
	}
	if r.eat('}') {
		return true
	}
	for {
		key, ok := r.Str()
		if !ok || !r.eat(':') || !field(key) {
			return false
		}
		if !r.eat(',') {
			return r.eat('}')
		}
	}
}

// Array reads one array, calling elem for each element.
func (r *JSONReader) Array(elem func() bool) bool {
	if !r.eat('[') {
		return false
	}
	if r.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !r.eat(',') {
			return r.eat(']')
		}
	}
}

// Str reads an escape-free ASCII string and returns a view of its body
// into the input: compare it with `switch string(s)` (no allocation) and
// copy only what outlives the input.
func (r *JSONReader) Str() ([]byte, bool) {
	if !r.eat('"') {
		return nil, false
	}
	start := r.i
	for ; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; {
		case c == '"':
			r.i++
			return r.b[start : r.i-1], true
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			return nil, false // escapes, control bytes, non-ASCII: encoding/json's
		}
	}
	return nil, false
}

// State reads a JobState, allocating only for a value that is not one of
// the four constants.
func (r *JSONReader) State() (JobState, bool) {
	s, ok := r.Str()
	switch string(s) {
	case "":
		return "", ok
	case string(StateCompleted):
		return StateCompleted, ok
	case string(StateFailed):
		return StateFailed, ok
	case string(StateTimeout):
		return StateTimeout, ok
	case string(StateCancelled):
		return StateCancelled, ok
	}
	return JobState(s), ok
}

// num reads a number token in RFC 8259 §6 form,
//
//	-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
//
// and reports whether it is a plain integer (no fraction or exponent).
// What follows the token is the caller's: `0104` reads as `0` and then
// fails at the `1`, where a separator must be.
func (r *JSONReader) num() (tok []byte, isInt, ok bool) {
	r.ws()
	start := r.i
	if r.i < len(r.b) && r.b[r.i] == '-' {
		r.i++
	}
	switch {
	case r.i < len(r.b) && r.b[r.i] == '0':
		r.i++
	case r.digits() == 0:
		return nil, false, false
	}
	isInt = true
	if r.i < len(r.b) && r.b[r.i] == '.' {
		r.i++
		if r.digits() == 0 {
			return nil, false, false
		}
		isInt = false
	}
	if r.i < len(r.b) && (r.b[r.i] == 'e' || r.b[r.i] == 'E') {
		r.i++
		if r.i < len(r.b) && (r.b[r.i] == '+' || r.b[r.i] == '-') {
			r.i++
		}
		if r.digits() == 0 {
			return nil, false, false
		}
		isInt = false
	}
	return r.b[start:r.i], isInt, true
}

// digits skips a run of decimal digits and returns its length.
func (r *JSONReader) digits() int {
	start := r.i
	for r.i < len(r.b) && r.b[r.i] >= '0' && r.b[r.i] <= '9' {
		r.i++
	}
	return r.i - start
}

// magnitude parses an integer token's digits; ok=false past limit.
func magnitude(digits []byte, limit uint64) (uint64, bool) {
	var v uint64
	for _, c := range digits {
		d := uint64(c - '0')
		if v > (limit-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// Int64 reads an integer literal into an int64 field.
func (r *JSONReader) Int64() (int64, bool) {
	tok, isInt, ok := r.num()
	if !ok || !isInt {
		return 0, false
	}
	if tok[0] == '-' {
		// math.MinInt64 itself is left to encoding/json.
		v, ok := magnitude(tok[1:], math.MaxInt64)
		return -int64(v), ok
	}
	v, ok := magnitude(tok, math.MaxInt64)
	return int64(v), ok
}

// Uint64 reads a non-negative integer literal into a uint64 field.
func (r *JSONReader) Uint64() (uint64, bool) {
	tok, isInt, ok := r.num()
	if !ok || !isInt || tok[0] == '-' {
		return 0, false
	}
	return magnitude(tok, math.MaxUint64)
}

// Int reads an integer literal into an int field, bailing outside the
// int32 range so the answer is the same on every platform.
func (r *JSONReader) Int() (int, bool) {
	v, ok := r.Int64()
	if !ok || v > math.MaxInt32 || v < math.MinInt32 {
		return 0, false
	}
	return int(v), true
}

// Float64 reads any number into a float64 field.
func (r *JSONReader) Float64() (float64, bool) {
	tok, _, ok := r.num()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// Bool reads true or false.
func (r *JSONReader) Bool() (bool, bool) {
	r.ws()
	rest := r.b[r.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		r.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		r.i += 5
		return false, true
	}
	return false, false
}

// Job reads a Job object into j, leaving fields the object does not name
// as they were.
func (r *JSONReader) Job(j *Job) bool {
	return r.Object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "id":
			j.ID, ok = r.Int()
		case "user":
			j.User, ok = r.Int()
		case "partition":
			var s []byte
			s, ok = r.Str()
			j.Partition = string(s)
		case "state":
			j.State, ok = r.State()
		case "submit":
			j.Submit, ok = r.Int64()
		case "eligible":
			j.Eligible, ok = r.Int64()
		case "start":
			j.Start, ok = r.Int64()
		case "end":
			j.End, ok = r.Int64()
		case "req_cpus":
			j.ReqCPUs, ok = r.Int()
		case "req_mem_gb":
			j.ReqMemGB, ok = r.Float64()
		case "req_nodes":
			j.ReqNodes, ok = r.Int()
		case "req_gpus":
			j.ReqGPUs, ok = r.Int()
		case "time_limit":
			j.TimeLimit, ok = r.Int64()
		case "priority":
			j.Priority, ok = r.Int64()
		case "qos":
			j.QOS, ok = r.Int()
		case "interactive":
			j.Interactive, ok = r.Bool()
		case "depends_on":
			j.DependsOn, ok = r.Int()
		}
		return ok
	})
}
