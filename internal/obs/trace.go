package obs

import (
	"crypto/rand"
	"encoding/hex"
)

// Canonical predict-pipeline stage names. A span carrying one of these
// names is a stage span: at request finish it feeds the "stage" label of
// the per-stage latency histogram and the access log's spans group (see
// IsStage). Keeping them centralized bounds the label cardinality.
const (
	StageSnapshot  = "snapshot"  // queue-state resolution (the engine's memoized queue extraction)
	StageFeaturize = "featurize" // engineered 33-feature row construction
	StageScale     = "scale"     // scaler transform, once per model chunk
	StageClassify  = "classify"  // classifier head forward pass over a chunk
	StageRegress   = "regress"   // regressor head forward pass over a chunk's long rows
	StageFallback  = "fallback"  // degraded tiers (GBDT, partition median)
)

// TraceIDHeader is the request/response header carrying the trace ID.
const TraceIDHeader = "X-Request-ID"

// maxTraceIDLen bounds accepted client-supplied IDs so a hostile header
// cannot bloat logs.
const maxTraceIDLen = 64

// NewTraceID returns a fresh 16-hex-char random trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a constant ID keeps
		// requests flowing and is still greppable.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// SanitizeTraceID vets a client-supplied trace ID: printable ASCII
// without quotes or spaces, bounded length. Anything else is rejected
// (empty return) and the caller should generate a fresh ID.
func SanitizeTraceID(id string) string {
	if id == "" || len(id) > maxTraceIDLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return ""
		}
	}
	return id
}

// IsStage reports whether a span name is one of the canonical pipeline
// stages — the spans the stage histogram and access log are derived from.
func IsStage(name string) bool {
	switch name {
	case StageSnapshot, StageFeaturize, StageScale, StageClassify,
		StageRegress, StageFallback:
		return true
	}
	return false
}
