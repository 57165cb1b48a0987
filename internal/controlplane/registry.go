package controlplane

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// manifestName is the registry's single manifest file.
const manifestName = "manifest.json"

// Registry is a versioned, content-addressed model store on disk:
//
//	<dir>/manifest.json      — the ManifestSet (atomic write-then-rename)
//	<dir>/<sha256-hex>.gob   — bundle blobs, named by content
//
// Publishes are crash-safe in two layers: the blob is written to a temp
// file, fsynced, and renamed into its content address before the manifest
// ever mentions it; the manifest itself is rewritten through the same
// temp+fsync+rename dance. A crash between the two leaves the previous
// manifest intact and at worst an orphan blob, which Open garbage-collects.
// All methods are safe for concurrent use.
type Registry struct {
	dir    string
	retain int

	mu  sync.Mutex
	set ManifestSet
}

// OpenRegistry opens (or initializes) a registry rooted at dir. retain is
// how many non-active blobs to keep before pruning oldest-first; 0 means
// 5, negative keeps everything. Leftover temp files from a crashed
// publish are removed, and blobs no manifest entry references are
// garbage-collected.
func OpenRegistry(dir string, retain int) (*Registry, error) {
	if dir == "" {
		return nil, fmt.Errorf("controlplane: registry needs a directory")
	}
	if retain == 0 {
		retain = 5
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("controlplane: registry: %w", err)
	}
	r := &Registry{dir: dir, retain: retain}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		set, derr := DecodeManifest(data)
		if derr != nil {
			return nil, derr
		}
		r.set = *set
	case os.IsNotExist(err):
		// Fresh registry.
	default:
		return nil, fmt.Errorf("controlplane: registry: %w", err)
	}
	r.sweep()
	return r, nil
}

// sweep removes crash leftovers: temp files from interrupted writes and
// blob files the manifest does not reference (a publish that died between
// blob rename and manifest rename).
func (r *Registry) sweep() {
	referenced := map[string]bool{}
	for i := range r.set.Versions {
		referenced[r.set.Versions[i].ID] = true
	}
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			_ = os.Remove(filepath.Join(r.dir, name))
		case strings.HasSuffix(name, ".gob"):
			if id := strings.TrimSuffix(name, ".gob"); isHex(id, 64) && !referenced[id] {
				_ = os.Remove(filepath.Join(r.dir, name))
			}
		}
	}
}

// blobPath is the content address of a bundle on disk.
func (r *Registry) blobPath(id string) string {
	return filepath.Join(r.dir, id+".gob")
}

// writeFileAtomic writes data through a temp file, fsyncs, and renames it
// into place — the old file (if any) survives any crash before the rename.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// saveLocked rewrites the manifest atomically. Callers hold r.mu.
func (r *Registry) saveLocked() error {
	data, err := EncodeManifest(&r.set)
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(r.dir, manifestName), data)
}

// Publish stores blob under its SHA-256 and appends a manifest entry with
// the next version number. The caller fills Parent/Watermark/Samples/
// Hyperparams/Eval/Status; Version, ID, and (if zero) CreatedUnix are
// assigned here. Returns the completed manifest entry.
func (r *Registry) Publish(blob []byte, m Manifest) (Manifest, error) {
	if len(blob) == 0 {
		return Manifest{}, fmt.Errorf("controlplane: publish: empty bundle blob")
	}
	sum := sha256.Sum256(blob)
	m.ID = hex.EncodeToString(sum[:])
	if m.Status == "" {
		m.Status = StatusShadow
	}
	if m.CreatedUnix == 0 {
		m.CreatedUnix = time.Now().Unix()
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	m.Version = 1
	if n := len(r.set.Versions); n > 0 {
		m.Version = r.set.Versions[n-1].Version + 1
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, err
	}
	// Blob first: the manifest must never reference bytes that are not
	// durably on disk. Content addressing makes re-publishing the same
	// bytes idempotent at the blob layer.
	if _, err := os.Stat(r.blobPath(m.ID)); err != nil {
		if err := writeFileAtomic(r.blobPath(m.ID), blob); err != nil {
			return Manifest{}, fmt.Errorf("controlplane: publish blob: %w", err)
		}
	}
	r.set.Versions = append(r.set.Versions, m)
	if err := r.saveLocked(); err != nil {
		r.set.Versions = r.set.Versions[:len(r.set.Versions)-1]
		return Manifest{}, fmt.Errorf("controlplane: publish manifest: %w", err)
	}
	r.pruneLocked()
	return m, nil
}

// pruneLocked enforces blob retention: beyond the newest retain non-active
// versions, blobs are deleted (manifest entries stay, status→pruned, for
// lineage). The active version's blob is always kept — it is the rollback
// target. Callers hold r.mu; manifest save errors here are ignored (a
// failed prune re-runs on the next publish).
func (r *Registry) pruneLocked() {
	if r.retain < 0 {
		return
	}
	kept := 0
	changed := false
	for i := len(r.set.Versions) - 1; i >= 0; i-- {
		m := &r.set.Versions[i]
		if m.Status == StatusPruned || m.Version == r.set.Active {
			continue
		}
		kept++
		if kept <= r.retain {
			continue
		}
		// Another entry may share the blob (idempotent re-publish);
		// only delete bytes no unpruned entry still references.
		shared := false
		for j := range r.set.Versions {
			if r.set.Versions[j].ID == m.ID && r.set.Versions[j].Version != m.Version &&
				r.set.Versions[j].Status != StatusPruned {
				shared = true
				break
			}
		}
		if !shared {
			_ = os.Remove(r.blobPath(m.ID))
		}
		m.Status = StatusPruned
		changed = true
	}
	if changed {
		_ = r.saveLocked()
	}
}

// List returns a copy of every manifest entry, oldest first.
func (r *Registry) List() []Manifest {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Manifest(nil), r.set.Versions...)
}

// ActiveVersion returns the active version number (0 = boot bundle).
func (r *Registry) ActiveVersion() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.set.Active
}

func (r *Registry) findLocked(version int) *Manifest {
	for i := range r.set.Versions {
		if r.set.Versions[i].Version == version {
			return &r.set.Versions[i]
		}
	}
	return nil
}

// Bundle reads a version's blob and verifies it against its content
// address, so silent disk corruption surfaces here rather than as NaNs at
// predict time.
func (r *Registry) Bundle(version int) (Manifest, []byte, error) {
	r.mu.Lock()
	m := r.findLocked(version)
	if m == nil {
		r.mu.Unlock()
		return Manifest{}, nil, fmt.Errorf("controlplane: no version %d in registry", version)
	}
	entry := *m
	r.mu.Unlock()
	if entry.Status == StatusPruned {
		return Manifest{}, nil, fmt.Errorf("controlplane: version %d blob was pruned", version)
	}
	blob, err := os.ReadFile(r.blobPath(entry.ID))
	if err != nil {
		return Manifest{}, nil, fmt.Errorf("controlplane: read version %d: %w", version, err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != entry.ID {
		return Manifest{}, nil, fmt.Errorf("controlplane: version %d blob corrupt: sha %s != manifest %s", version, got, entry.ID)
	}
	return entry, blob, nil
}

// SetStatus updates one version's lifecycle status (and note, when
// non-empty), persisting the manifest atomically.
func (r *Registry) SetStatus(version int, status, note string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.findLocked(version)
	if m == nil {
		return fmt.Errorf("controlplane: no version %d in registry", version)
	}
	old, oldNote := m.Status, m.Note
	m.Status = status
	if note != "" {
		m.Note = note
	}
	if err := r.saveLocked(); err != nil {
		m.Status, m.Note = old, oldNote
		return err
	}
	return nil
}

// SetActive marks version as the serving model (demoting the previous
// active entry to retired) and persists atomically. Version 0 clears the
// active mark — the rollback-to-boot-bundle case.
func (r *Registry) SetActive(version int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var target *Manifest
	if version != 0 {
		if target = r.findLocked(version); target == nil {
			return fmt.Errorf("controlplane: no version %d in registry", version)
		}
		if target.Status == StatusPruned {
			return fmt.Errorf("controlplane: version %d blob was pruned; cannot activate", version)
		}
	}
	prevActive, prevStatus := r.set.Active, ""
	var prevM *Manifest
	if prevActive != 0 && prevActive != version {
		if prevM = r.findLocked(prevActive); prevM != nil {
			prevStatus = prevM.Status
			prevM.Status = StatusRetired
		}
	}
	var targetOld string
	if target != nil {
		targetOld = target.Status
		target.Status = StatusActive
	}
	r.set.Active = version
	if err := r.saveLocked(); err != nil {
		r.set.Active = prevActive
		if prevM != nil {
			prevM.Status = prevStatus
		}
		if target != nil {
			target.Status = targetOld
		}
		return err
	}
	return nil
}
