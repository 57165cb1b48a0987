// Package controlplane closes the continual-learning loop the ROADMAP
// asks for: a versioned, content-addressed model registry on disk, a
// background controller that watches the online accuracy tracker's drift
// signal and retrains past thresholds, a judge that compares the
// candidate with the incumbent on the trainer's time-ordered holdout, and
// an atomic hot-swap (with rollback) once the candidate wins.
//
// The package is model-agnostic on purpose: bundles move through it as
// opaque gob blobs identified by their SHA-256, and the trainer hands it
// both holdout scores — the root package trains, scores, decodes blobs,
// and owns the actual serving swap. That keeps the lifecycle machinery
// (Idle→Retraining→Promoted/Rejected, plus post-promotion rollback)
// independently testable with synthetic trainers and drift sources.
package controlplane

import (
	"encoding/json"
	"fmt"
	"math"
)

// Candidate lifecycle statuses recorded in the registry manifest.
const (
	// StatusShadow marks a freshly published candidate not yet judged
	// (the name predates the holdout judge; registries keep it).
	StatusShadow = "shadow"
	// StatusActive marks the version currently serving.
	StatusActive = "active"
	// StatusRejected marks a candidate that scored worse than the
	// incumbent on the holdout (or could not be swapped in).
	StatusRejected = "rejected"
	// StatusRetired marks a formerly active version replaced by a
	// promoted candidate.
	StatusRetired = "retired"
	// StatusRolledBack marks a promoted candidate that regressed online
	// and was swapped back out.
	StatusRolledBack = "rolled_back"
	// StatusPruned marks a version whose blob retention removed; the
	// manifest entry stays for lineage.
	StatusPruned = "pruned"
)

var knownStatus = map[string]bool{
	StatusShadow: true, StatusActive: true, StatusRejected: true,
	StatusRetired: true, StatusRolledBack: true, StatusPruned: true,
}

// Eval is a model's scores on the time-ordered holdout, recorded at
// publish time so the registry answers "how good did training think this
// was" without re-running evaluation.
type Eval struct {
	MAEMinutes float64 `json:"mae_minutes"`
	MAPE       float64 `json:"mape"`
	HitRate    float64 `json:"hit_rate"`
	// LongJobs counts the holdout jobs whose realized wait reached the
	// cutoff: the jobs MAE and MAPE cover. With none they measure nothing.
	LongJobs int `json:"long_jobs,omitempty"`
}

// Manifest is one version's registry record.
type Manifest struct {
	// Version is the registry-assigned monotonic version number (1-based;
	// 0 means "the boot bundle", which predates the registry).
	Version int `json:"version"`
	// ID is the SHA-256 of the bundle blob, hex — the content address.
	ID string `json:"id"`
	// Parent is the ID of the model serving when this one was trained.
	Parent string `json:"parent,omitempty"`
	// CreatedUnix is the publish time.
	CreatedUnix int64 `json:"created_unix"`
	// Watermark is the training-data horizon: the live-state engine clock
	// when the training trace was extracted (unix seconds). Together with
	// Parent it answers "trained on what, replacing what".
	Watermark int64 `json:"watermark"`
	// Samples is the training-set size.
	Samples int `json:"samples"`
	// Hyperparams records the training configuration that produced the
	// bundle (flattened to strings so the manifest stays schema-stable
	// across model changes).
	Hyperparams map[string]string `json:"hyperparams,omitempty"`
	// Eval holds the offline holdout scores from training time.
	Eval Eval `json:"eval"`
	// Status is the lifecycle state (shadow/active/rejected/retired/
	// rolled_back/pruned).
	Status string `json:"status"`
	// Note carries human-readable context (the holdout scores behind the
	// verdict, rejection reasons).
	Note string `json:"note,omitempty"`
}

// ManifestSet is the registry's manifest file: every published version
// plus which one is active. It is the unit of atomic publish — the whole
// set is rewritten through a temp file + rename, so a crash anywhere
// leaves the previous manifest intact.
type ManifestSet struct {
	// Active is the active version number; 0 means none (the boot bundle
	// is serving).
	Active int `json:"active"`
	// Versions is ordered by ascending version number.
	Versions []Manifest `json:"versions"`
}

// isHex reports whether s is lowercase hex of the given length — the
// shape of a SHA-256 content address.
func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Validate checks one manifest entry's invariants.
func (m *Manifest) Validate() error {
	switch {
	case m.Version <= 0:
		return fmt.Errorf("controlplane: manifest version %d must be positive", m.Version)
	case !isHex(m.ID, 64):
		return fmt.Errorf("controlplane: manifest v%d id %q is not a sha-256 hex digest", m.Version, m.ID)
	case m.Parent != "" && !isHex(m.Parent, 64):
		return fmt.Errorf("controlplane: manifest v%d parent %q is not a sha-256 hex digest", m.Version, m.Parent)
	case !knownStatus[m.Status]:
		return fmt.Errorf("controlplane: manifest v%d has unknown status %q", m.Version, m.Status)
	case m.Samples < 0 || m.Eval.LongJobs < 0:
		return fmt.Errorf("controlplane: manifest v%d has a negative count", m.Version)
	case m.CreatedUnix < 0 || m.Watermark < 0:
		return fmt.Errorf("controlplane: manifest v%d has negative timestamps", m.Version)
	}
	for _, v := range [3]float64{m.Eval.MAEMinutes, m.Eval.MAPE, m.Eval.HitRate} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("controlplane: manifest v%d has non-finite or negative eval scores", m.Version)
		}
	}
	return nil
}

// Validate checks the whole set: versions strictly increasing (so lineage
// is unambiguous) and Active, when set, naming a published version.
func (s *ManifestSet) Validate() error {
	prev := 0
	activeSeen := s.Active == 0
	for i := range s.Versions {
		m := &s.Versions[i]
		if err := m.Validate(); err != nil {
			return err
		}
		if m.Version <= prev {
			return fmt.Errorf("controlplane: manifest versions not strictly increasing at v%d", m.Version)
		}
		prev = m.Version
		if m.Version == s.Active {
			activeSeen = true
		}
	}
	if s.Active < 0 {
		return fmt.Errorf("controlplane: negative active version %d", s.Active)
	}
	if !activeSeen {
		return fmt.Errorf("controlplane: active version %d not in manifest", s.Active)
	}
	return nil
}

// DecodeManifest parses and validates a manifest file. Unknown JSON
// fields are tolerated (forward compatibility); semantic violations are
// not — a registry will refuse to open over a manifest that fails this,
// rather than serve models under a corrupt lineage.
func DecodeManifest(data []byte) (*ManifestSet, error) {
	var s ManifestSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("controlplane: decode manifest: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// EncodeManifest renders the set as indented JSON (the manifest is meant
// to be operator-readable on disk).
func EncodeManifest(s *ManifestSet) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(s, "", "  ")
}
