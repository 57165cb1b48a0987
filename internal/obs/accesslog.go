package obs

import (
	"log/slog"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// accessRecord is one request's access-log record (msg "request").
type accessRecord struct {
	traceID, method, path, remote string
	status                        int
	seconds                       float64
	bytes                         int64
	stages                        stageTimings
}

// attrs is r as the attributes Instrument passes to Logger.LogAttrs when
// the logger is not NewLogger's JSON one.
func (r *accessRecord) attrs() []slog.Attr {
	return []slog.Attr{
		slog.String("trace_id", r.traceID),
		slog.String("method", r.method),
		slog.String("path", r.path),
		slog.Int("status", r.status),
		slog.Float64("duration_seconds", r.seconds),
		slog.Int64("bytes", r.bytes),
		slog.String("remote", r.remote),
		slog.Any("spans", r.stages),
	}
}

// appendAccess appends r as the line slog.NewJSONHandler writes for an
// Info "request" record at t carrying r.attrs(), byte for byte, without
// slog's reflection (FuzzAccessLine holds the two equal).
func appendAccess(b []byte, t time.Time, r *accessRecord) []byte {
	b = append(b, `{"time":"`...)
	b = t.AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","level":"INFO","msg":"request","trace_id":`...)
	b = appendJSONString(b, r.traceID)
	b = append(b, `,"method":`...)
	b = appendJSONString(b, r.method)
	b = append(b, `,"path":`...)
	b = appendJSONString(b, r.path)
	b = append(b, `,"status":`...)
	b = strconv.AppendInt(b, int64(r.status), 10)
	b = append(b, `,"duration_seconds":`...)
	b = appendJSONFloat(b, r.seconds)
	b = append(b, `,"bytes":`...)
	b = strconv.AppendInt(b, r.bytes, 10)
	b = append(b, `,"remote":`...)
	b = appendJSONString(b, r.remote)
	if len(r.stages) > 0 { // slog leaves an empty group out
		b = append(b, `,"spans":{`...)
		for i, s := range r.stages {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, s.stage)
			b = append(b, ':')
			b = appendJSONFloat(b, s.seconds)
		}
		b = append(b, '}')
	}
	return append(b, "}\n"...)
}

// appendJSONFloat formats a finite f as encoding/json does: 'f' notation,
// 'e' below 1e-6 or from 1e21 on, with a one-digit negative exponent
// written e-7 rather than e-07.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendJSONString appends s quoted as slog's JSON handler writes it:
// HTML characters left alone, control bytes, quote and backslash escaped,
// invalid UTF-8 as \ufffd, and U+2028/U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			i++
			if c >= ' ' && c != '"' && c != '\\' {
				continue
			}
			b = append(b, s[start:i-1]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, `\n`...)
			case '\r':
				b = append(b, `\r`...)
			case '\t':
				b = append(b, `\t`...)
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// accessBufs recycles access-line buffers; one outsized by a long path
// or method is dropped rather than kept.
var accessBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

const maxPooledAccessBuf = 4 << 10

// writeAccess writes r, logged at t, as one line to the handler's sink,
// as slog would (a write error is dropped, as Logger.LogAttrs drops it).
func (h jsonHandler) writeAccess(t time.Time, r *accessRecord) {
	bp := accessBufs.Get().(*[]byte)
	b := appendAccess((*bp)[:0], t, r)
	_, _ = h.w.Write(b)
	if cap(b) <= maxPooledAccessBuf {
		*bp = b
		accessBufs.Put(bp)
	}
}
