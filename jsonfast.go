package trout

import (
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/trace"
)

// This file is the zero-allocation JSON fast path for the /predict and
// /predict/batch hot loop. The contract, pinned by differential tests:
//
//   - Encoders produce output byte-identical to encoding/json's Encoder
//     (HTML escaping on, '\n' terminator) for the fixed response shapes,
//     or report ok=false (non-finite floats) so the caller falls back to
//     the stdlib path and its error handling.
//   - The request decoders read with trace.JSONReader, the repo's one
//     hand-rolled JSON reader, and report ok=false on anything outside
//     its subset so the caller re-parses with encoding/json. Results on
//     the accepted subset are identical to the stdlib's (trailing data
//     after the first value is ignored, matching json.Decoder semantics).
//
// Buffers are pooled; the appenders allocate only when a buffer grows
// past its pooled capacity.

// respBuf is a pooled response/request scratch buffer.
type respBuf struct{ b []byte }

var respBufPool = sync.Pool{
	New: func() any { return &respBuf{b: make([]byte, 0, 4096)} },
}

func getRespBuf() *respBuf { return respBufPool.Get().(*respBuf) }
func putRespBuf(rb *respBuf) {
	if cap(rb.b) > 1<<20 {
		return // don't pin pathological buffers in the pool
	}
	respBufPool.Put(rb)
}

// readBody drains r into rb's pooled storage and returns the body bytes
// (valid until the buffer is returned to the pool).
func readBody(rb *respBuf, r io.Reader) ([]byte, error) {
	b := rb.b[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			rb.b = b
			if err == io.EOF {
				return b, nil
			}
			return b, err
		}
	}
}

// jsonSafe marks ASCII bytes encoding/json emits verbatim inside strings
// (with HTML escaping on): printable, not '"', '\\', '<', '>', '&'.
var jsonSafe = [utf8.RuneSelf]bool{}

func init() {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		jsonSafe[c] = true
	}
	for _, c := range []byte{'"', '\\', '<', '>', '&'} {
		jsonSafe[c] = false
	}
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string, byte-identical to
// encoding/json's default (HTML-escaping) string encoder.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				// Control chars and <, >, & as \u00xx.
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			// Invalid byte: the stdlib emits the six-char escape, not a
			// literal replacement character.
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends f the way encoding/json's floatEncoder does:
// 'f' format unless the magnitude forces scientific notation, with the
// exponent's leading zero stripped. ok=false for non-finite values (the
// stdlib errors on those; callers fall back to it for the error path).
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, mirroring the stdlib.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

func appendJSONBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

// encodePredictResponse appends v exactly as json.NewEncoder(w).Encode(v)
// would write it (field order, omitempty, trailing newline). ok=false
// means a non-finite float; the caller must fall back to the stdlib path.
func encodePredictResponse(b []byte, v *predictResponse) ([]byte, bool) {
	var ok bool
	b = append(b, `{"long":`...)
	b = appendJSONBool(b, v.Long)
	b = append(b, `,"prob":`...)
	if b, ok = appendJSONFloat(b, v.Prob); !ok {
		return b, false
	}
	if v.Minutes != 0 {
		b = append(b, `,"minutes":`...)
		if b, ok = appendJSONFloat(b, v.Minutes); !ok {
			return b, false
		}
	}
	b = append(b, `,"message":`...)
	b = appendJSONString(b, v.Message)
	b = append(b, `,"tier":`...)
	b = appendJSONString(b, v.Tier)
	b = append(b, `,"snapshot_source":`...)
	b = appendJSONString(b, v.Source)
	b = append(b, `,"pending_in_snapshot":`...)
	b = strconv.AppendInt(b, int64(v.Pending), 10)
	b = append(b, `,"running_in_snapshot":`...)
	b = strconv.AppendInt(b, int64(v.Running), 10)
	b = append(b, `,"model_version":`...)
	b = strconv.AppendInt(b, int64(v.ModelVersion), 10)
	if v.ModelID != "" {
		b = append(b, `,"model_id":`...)
		b = appendJSONString(b, v.ModelID)
	}
	return append(b, '}', '\n'), true
}

// encodePredictBatchResponse is encodePredictResponse's batch sibling.
func encodePredictBatchResponse(b []byte, v *predictBatchResponse) ([]byte, bool) {
	var ok bool
	b = append(b, `{"at":`...)
	b = strconv.AppendInt(b, v.At, 10)
	b = append(b, `,"snapshot_source":`...)
	b = appendJSONString(b, v.Source)
	b = append(b, `,"pending_in_snapshot":`...)
	b = strconv.AppendInt(b, int64(v.Pending), 10)
	b = append(b, `,"running_in_snapshot":`...)
	b = strconv.AppendInt(b, int64(v.Running), 10)
	b = append(b, `,"results":`...)
	if v.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range v.Results {
			if i > 0 {
				b = append(b, ',')
			}
			it := &v.Results[i]
			b = append(b, `{"long":`...)
			b = appendJSONBool(b, it.Long)
			b = append(b, `,"prob":`...)
			if b, ok = appendJSONFloat(b, it.Prob); !ok {
				return b, false
			}
			if it.Minutes != 0 {
				b = append(b, `,"minutes":`...)
				if b, ok = appendJSONFloat(b, it.Minutes); !ok {
					return b, false
				}
			}
			if it.Message != "" {
				b = append(b, `,"message":`...)
				b = appendJSONString(b, it.Message)
			}
			if it.Tier != "" {
				b = append(b, `,"tier":`...)
				b = appendJSONString(b, it.Tier)
			}
			if it.Error != "" {
				b = append(b, `,"error":`...)
				b = appendJSONString(b, it.Error)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"model_version":`...)
	b = strconv.AppendInt(b, int64(v.ModelVersion), 10)
	if v.ModelID != "" {
		b = append(b, `,"model_id":`...)
		b = appendJSONString(b, v.ModelID)
	}
	return append(b, '}', '\n'), true
}

// decodePredictRequest parses a POST /predict body with trace.JSONReader.
// ok=false means the body is outside the reader's subset (NOT that it is
// invalid) — re-parse with encoding/json. Trailing data after the object is
// ignored, matching json.Decoder.Decode.
func decodePredictRequest(body []byte, req *predictRequest) bool {
	r := trace.NewJSONReader(body)
	return r.Object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "at":
			req.At, ok = r.Int64()
		case "job":
			ok = r.Job(&req.Job)
		}
		return ok
	})
}

// decodePredictBatchRequest parses a POST /predict/batch body; same
// contract as decodePredictRequest. A repeated "jobs" key bails: there
// encoding/json decodes element-wise into the first array's elements.
func decodePredictBatchRequest(body []byte, req *predictBatchRequest) bool {
	r := trace.NewJSONReader(body)
	return r.Object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "at":
			req.At, ok = r.Int64()
		case "jobs":
			if req.Jobs != nil {
				return false
			}
			req.Jobs = []trace.Job{}
			ok = r.Array(func() bool {
				req.Jobs = append(req.Jobs, trace.Job{})
				return r.Job(&req.Jobs[len(req.Jobs)-1])
			})
		}
		return ok
	})
}
