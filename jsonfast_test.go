// Differential tests pinning the zero-alloc JSON fast path to the stdlib:
// every encoder output must be byte-identical to encoding/json's Encoder
// (or the encoder must refuse and hand the value back), every accepted
// parse must produce the exact struct encoding/json would, and the encode
// hot path must stay at zero allocations per response.
package trout

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// stdlibEncode is the reference: json.NewEncoder output (HTML escaping on,
// trailing newline) — exactly what the pre-fast-path service wrote.
func stdlibEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("stdlib encode: %v", err)
	}
	return buf.Bytes()
}

// edgeStrings exercise every escape class the string encoder handles:
// HTML-escaped bytes, two-char escapes, \u00xx control chars, the JS line
// separators, invalid UTF-8 (→ U+FFFD), and multi-byte valid UTF-8.
var edgeStrings = []string{
	"",
	"plain ascii",
	`<script>alert("x&y")</script>`,
	"tab\tnl\nret\rquote\"backslash\\",
	"ctrl\x00\x01\x1f",
	"line\u2028and\u2029seps",
	"bad utf8 \xff\xfe tail\xc3",
	"h\u00e9llo w\u00f6rld \u2713 \U0001F600",
	"trailing backslash\\",
	"<",
}

var edgeFloats = []float64{
	0, 1, -1, 0.25, -0.25, 0.1,
	1e-6, 9.999e-7, 1e-7, -4.2e-9, // scientific-notation threshold (low)
	1e21, 9.99e20, -3.25e22, // scientific-notation threshold (high)
	123456789.5, math.MaxFloat64, math.SmallestNonzeroFloat64,
	2.2250738585072014e-308, 1e100,
}

func TestEncodePredictResponseDifferential(t *testing.T) {
	var cases []predictResponse
	for i, s := range edgeStrings {
		f := edgeFloats[i%len(edgeFloats)]
		cases = append(cases,
			predictResponse{Long: i%2 == 0, Prob: f, Message: s, Tier: "nn",
				Source: "live", Pending: i, Running: -i, ModelVersion: i},
			predictResponse{Prob: 0.5, Minutes: f, Message: "ok", Tier: s,
				Source: s, Pending: math.MaxInt32, ModelVersion: -1, ModelID: s},
		)
	}
	// Minutes==0 must omit the field; ModelID=="" must omit the field.
	cases = append(cases, predictResponse{}, predictResponse{Minutes: 0, ModelID: ""})
	for i, v := range cases {
		got, ok := encodePredictResponse(nil, &v)
		if !ok {
			t.Fatalf("case %d: encoder refused finite value %+v", i, v)
		}
		want := stdlibEncode(t, &v)
		if !bytes.Equal(got, want) {
			t.Errorf("case %d:\n got  %q\n want %q", i, got, want)
		}
	}
}

func TestEncodePredictBatchResponseDifferential(t *testing.T) {
	mkItems := func(n int) []batchItem {
		items := make([]batchItem, n)
		for i := range items {
			items[i] = batchItem{
				Long: i%2 == 1, Prob: edgeFloats[i%len(edgeFloats)],
				Minutes: edgeFloats[(i+3)%len(edgeFloats)],
				Message: edgeStrings[i%len(edgeStrings)],
				Tier:    "nn",
			}
		}
		// omitempty coverage: one all-zero item, one error-only item.
		items[0] = batchItem{}
		if n > 1 {
			items[1] = batchItem{Error: edgeStrings[2]}
		}
		return items
	}
	cases := []predictBatchResponse{
		{At: 0, Source: "scan", Results: nil},            // null results
		{At: -5, Source: "live", Results: []batchItem{}}, // empty array
		{At: 12345, Source: "live", Pending: 7, Running: 3, Results: mkItems(1)},
		{At: math.MaxInt64, Source: edgeStrings[6], Pending: -1,
			Results: mkItems(9), ModelVersion: 4, ModelID: "deadbeef"},
	}
	for i, v := range cases {
		got, ok := encodePredictBatchResponse(nil, &v)
		if !ok {
			t.Fatalf("case %d: encoder refused finite value", i)
		}
		want := stdlibEncode(t, &v)
		if !bytes.Equal(got, want) {
			t.Errorf("case %d:\n got  %q\n want %q", i, got, want)
		}
	}
}

// Non-finite floats are the one shape the fast encoder cannot reproduce
// (the stdlib errors); it must refuse so the caller reaches that error.
func TestEncodeRefusesNonFinite(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, f := range bad {
		if _, ok := encodePredictResponse(nil, &predictResponse{Prob: f}); ok {
			t.Errorf("Prob=%v: encoder accepted non-finite", f)
		}
		if _, ok := encodePredictResponse(nil, &predictResponse{Minutes: f}); ok {
			t.Errorf("Minutes=%v: encoder accepted non-finite", f)
		}
		if _, ok := encodePredictBatchResponse(nil, &predictBatchResponse{
			Results: []batchItem{{Prob: f}},
		}); ok {
			t.Errorf("batch Prob=%v: encoder accepted non-finite", f)
		}
	}
}

// The steady-state /predict encode must not allocate: the response fits in
// the pooled buffer and every appender works in place.
func TestEncodePredictResponseZeroAllocs(t *testing.T) {
	v := &predictResponse{
		Long: true, Prob: 0.8251, Minutes: 42.5,
		Message: "long wait likely", Tier: "nn", Source: "live",
		Pending: 1234, Running: 567, ModelVersion: 3, ModelID: "abcdef012345",
	}
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(200, func() {
		b, ok := encodePredictResponse(buf, v)
		if !ok || len(b) == 0 {
			t.Fatal("encode failed")
		}
	})
	if allocs != 0 {
		t.Errorf("encodePredictResponse: %.1f allocs/op, want 0", allocs)
	}
}

func TestDecodePredictRequestDifferential(t *testing.T) {
	accepted := []string{
		`{}`,
		`{"at":123}`,
		`{"at":-987654321}`,
		`{"at":1,"job":{}}`,
		`{"at":2000,"job":{"id":7,"user":3,"partition":"shared","state":"PENDING","submit":100,"eligible":150,"start":0,"end":0,"req_cpus":8,"req_mem_gb":16.5,"req_nodes":2,"req_gpus":1,"time_limit":7200,"priority":3000,"qos":2,"interactive":true,"depends_on":6}}`,
		"  {  \"at\" : 42 , \"job\" : { \"user\" : 9 } }  \n",
		`{"at":1,"at":2}`,                          // duplicate key: last wins
		`{"job":{"req_mem_gb":1e2}} trailing junk`, // Decoder ignores trailing data
		`{"job":{"req_mem_gb":-0.5,"interactive":false}}`,
		`{"at":9223372036854775807}`, // MaxInt64 exactly
		`{"job":{"req_mem_gb":2.5E+1}}`,
	}
	for i, body := range accepted {
		var fast predictRequest
		if !decodePredictRequest([]byte(body), &fast) {
			t.Errorf("case %d: fast path rejected in-subset body %q", i, body)
			continue
		}
		var want predictRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&want); err != nil {
			t.Fatalf("case %d: stdlib rejected %q: %v", i, body, err)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Errorf("case %d: %q\n fast   %+v\n stdlib %+v", i, body, fast, want)
		}
	}
	// Outside the subset: the fast path must bail (ok=false) so the handler
	// re-parses with encoding/json — whether the body is valid JSON the
	// stdlib accepts (escapes, null, unknown keys → field error) or garbage
	// that needs the stdlib's exact error text.
	bail := []string{
		``,
		`not json`,
		`null`,
		`[1,2]`,
		`{"at":null}`,
		`{"at":1.5}`,                             // float in int field
		`{"at":1e3}`,                             // exponent in int field
		`{"at":99999999999999999999}`,            // overflow
		`{"At":1}`,                               // case-insensitive match is stdlib-only
		`{"unknown":1}`,                          // unknown key
		`{"job":{"partition":"a\"b"}}`,           // escape in string
		`{"job":{"partition":"gp\u00fc"}}`,       // (escaped ü) escape in string
		"{\"job\":{\"partition\":\"gp\u00fc\"}}", // raw non-ASCII string
		`{"job":{"id":4294967296}}`,              // beyond int32 guard
		`{"job":{"interactive":1}}`,
		`{"at":"12"}`,
		`{"at":1,}`,
		`{"at": +5}`,
		// Numerals RFC 8259 forbids: leading zeros, a bare '.', a fraction
		// with no digits before the exponent.
		`{"at":0104}`,
		`{"at":-07}`,
		`{"job":{"req_mem_gb":1.}}`,
		`{"job":{"req_mem_gb":01.5}}`,
		`{"job":{"req_mem_gb":1.e3}}`,
	}
	for i, body := range bail {
		var fast predictRequest
		if decodePredictRequest([]byte(body), &fast) {
			t.Errorf("bail case %d: fast path accepted %q", i, body)
		}
	}
}

func TestDecodePredictBatchRequestDifferential(t *testing.T) {
	accepted := []string{
		`{}`,
		`{"at":5,"jobs":[]}`,
		`{"at":5,"jobs":[{"user":1},{"user":2,"req_cpus":16},{}]}`,
		`{"jobs":[{"partition":"gpu","req_mem_gb":0.5}],"at":77}`,
	}
	for i, body := range accepted {
		var fast predictBatchRequest
		if !decodePredictBatchRequest([]byte(body), &fast) {
			t.Errorf("case %d: fast path rejected %q", i, body)
			continue
		}
		var want predictBatchRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&want); err != nil {
			t.Fatalf("case %d: stdlib rejected %q: %v", i, body, err)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Errorf("case %d: %q\n fast   %+v\n stdlib %+v", i, body, fast, want)
		}
	}
	bail := []string{
		`{"jobs":null}`,
		`{"jobs":[null]}`,
		`{"jobs":[{"user":1},]}`,
		`{"jobs":{}}`,
		`{"jobs":[{"nope":1}]}`,
		`{"jobs":[{"user":1}],"jobs":[{}]}`, // encoding/json merges element-wise
	}
	for i, body := range bail {
		var fast predictBatchRequest
		if decodePredictBatchRequest([]byte(body), &fast) {
			t.Errorf("bail case %d: fast path accepted %q", i, body)
		}
	}
}

// FuzzDecodePredictRequest holds both predict decoders to json.Decoder:
// whatever the reader accepts, the stdlib accepts too, with the same value.
func FuzzDecodePredictRequest(f *testing.F) {
	for _, body := range []string{
		`{"at":2000,"job":{"id":7,"user":3,"partition":"shared","req_cpus":8,"req_mem_gb":16.5,"req_nodes":1,"time_limit":7200}}`,
		`{"at":5,"jobs":[{"user":1},{"user":2,"req_cpus":16},{}]}`,
		// The five numerals JSON forbids, and one it allows.
		`{"at":0104}`,
		`{"at":-07}`,
		`{"job":{"req_mem_gb":1.}}`,
		`{"jobs":[{"req_mem_gb":01.5}]}`,
		`{"job":{"req_mem_gb":1.e3}}`,
		`{"job":{"req_mem_gb":2.5E+1}}`,
		// Repeated keys: scalars last-wins, job merges, jobs merges by index.
		`{"at":1,"job":{"user":1,"req_cpus":4},"at":2,"job":{"user":9}}`,
		`{"jobs":[{"user":1,"req_cpus":4},{}],"jobs":[{"user":2}]}`,
		`{"jobs":[],"jobs":[{}]}`,
		// Case-variant keys, escapes, null.
		`{"At":1,"JOB":{"User":1}}`,
		`{"jobs":[{"Partition":"gpu"}]}`,
		`{"job":{"partition":"gp\u0075"}}`,
		`{"job":{"partition":"a\"b"}}`,
		`{"at":null,"job":null}`,
		`{"jobs":null}`,
		`{"jobs":[null]}`,
		// Int32-overflowing job fields; floats in int fields.
		`{"job":{"id":2147483648,"req_cpus":-2147483649}}`,
		`{"jobs":[{"req_nodes":4294967296}]}`,
		`{"at":1.0}`,
		`{"job":{"qos":2e0}}`,
		`{"at":-9223372036854775808}`,
		// Trailing garbage, leading whitespace.
		`{"at":1} trailing`,
		`{"at":1}{"at":2}`,
		" \t\r\n{\"at\":3}",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeMatchesStdlib(t, body, decodePredictRequest)
		checkDecodeMatchesStdlib(t, body, decodePredictBatchRequest)
	})
}

func checkDecodeMatchesStdlib[T any](t *testing.T, body []byte, decode func([]byte, *T) bool) {
	t.Helper()
	var fast T
	if !decode(body, &fast) {
		return
	}
	var want T
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
		t.Fatalf("reader accepted %q, json.Decoder refused: %v", body, err)
	}
	if !reflect.DeepEqual(fast, want) {
		t.Fatalf("%q:\n reader %+v\n json   %+v", body, fast, want)
	}
}

// The old package-level writeJSON encoded straight onto the wire: by the
// time Encode failed, the 200 and headers were committed and the error
// vanished. The method buffers first — an unencodable value must now
// produce a logged, structured 500.
func TestWriteJSONEncodeErrorIsLogged500(t *testing.T) {
	var logBuf bytes.Buffer
	s := &Service{logger: slog.New(slog.NewTextHandler(&logBuf, nil))}

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/test-path", nil)
	s.writeJSON(rec, req, http.StatusOK, math.NaN()) // json: unsupported value
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %q", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "encode response") {
		t.Errorf("500 body %q does not name the encode failure", rec.Body.String())
	}
	log := logBuf.String()
	if !strings.Contains(log, "response encode failed") ||
		!strings.Contains(log, "/test-path") {
		t.Errorf("encode failure not logged with path: %q", log)
	}

	// Success path for contrast: buffered write sets Content-Length.
	rec = httptest.NewRecorder()
	s.writeJSON(rec, req, http.StatusOK, map[string]int{"n": 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", rec.Code)
	}
	if got, want := rec.Header().Get("Content-Length"), "8"; got != want {
		t.Errorf("Content-Length %q, want %q (body %q)", got, want, rec.Body.String())
	}
	if rec.Body.String() != "{\"n\":1}\n" {
		t.Errorf("body %q", rec.Body.String())
	}
}

// writePredictResponse must fall back to the stdlib path (and its logged
// 500) for values the fast encoder refuses, and write byte-identical
// output with Content-Length for values it accepts.
func TestWritePredictResponseFallback(t *testing.T) {
	var logBuf bytes.Buffer
	s := &Service{logger: slog.New(slog.NewTextHandler(&logBuf, nil))}
	req := httptest.NewRequest(http.MethodPost, "/predict", nil)

	rec := httptest.NewRecorder()
	s.writePredictResponse(rec, req, &predictResponse{Prob: math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("non-finite response: status %d, want 500", rec.Code)
	}
	if !strings.Contains(logBuf.String(), "response encode failed") {
		t.Errorf("fallback encode failure not logged: %q", logBuf.String())
	}

	v := &predictResponse{Prob: 0.75, Message: "ok", Tier: "nn", Source: "live"}
	rec = httptest.NewRecorder()
	s.writePredictResponse(rec, req, v)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", rec.Code)
	}
	want := stdlibEncode(t, v)
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("fast body %q != stdlib %q", rec.Body.Bytes(), want)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(want)) {
		t.Errorf("Content-Length %q, want %d", got, len(want))
	}
}
