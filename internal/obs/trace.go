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
	var id [16]byte
	hex.Encode(id[:], b[:])
	return string(id[:])
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

// stageNames lists the canonical stages; Instrument resolves one stage
// histogram per entry, found by stageIndex.
var stageNames = [...]string{StageSnapshot, StageFeaturize, StageScale,
	StageClassify, StageRegress, StageFallback}

// stageIndex is name's index in stageNames, or -1 if it names no stage.
func stageIndex(name string) int {
	for i, s := range stageNames {
		if s == name {
			return i
		}
	}
	return -1
}

// IsStage reports whether a span name is one of the canonical pipeline
// stages — the spans the stage histogram and access log are derived from.
func IsStage(name string) bool { return stageIndex(name) >= 0 }
