package controlplane

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func blobFor(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Manifest returns one version's entry.
func (r *Registry) Manifest(version int) (Manifest, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.findLocked(version); m != nil {
		return *m, true
	}
	return Manifest{}, false
}

func TestRegistryPublishListActive(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegistry(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := r.Publish([]byte("model-one"), Manifest{Samples: 10, Note: "first"})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Version != 1 || m1.ID != blobFor([]byte("model-one")) || m1.Status != StatusShadow {
		t.Fatalf("m1 = %+v", m1)
	}
	m2, err := r.Publish([]byte("model-two"), Manifest{Parent: m1.ID, Samples: 20})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version != 2 || m2.Parent != m1.ID {
		t.Fatalf("m2 = %+v", m2)
	}
	if err := r.SetActive(2); err != nil {
		t.Fatal(err)
	}
	if err := r.SetStatus(2, StatusActive, "promoted"); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk: everything must survive the round-trip.
	r2, err := OpenRegistry(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	if r2.ActiveVersion() != 2 {
		t.Fatalf("active %d after reopen", r2.ActiveVersion())
	}
	list := r2.List()
	if len(list) != 2 || list[0].Version != 1 || list[1].Status != StatusActive {
		t.Fatalf("list = %+v", list)
	}
	got, blob, err := r2.Bundle(1)
	if err != nil || string(blob) != "model-one" || got.Note != "first" {
		t.Fatalf("Bundle(1) = %+v, %q, %v", got, blob, err)
	}

	// Promoting another version demotes the previous active to retired.
	if err := r2.SetActive(1); err != nil {
		t.Fatal(err)
	}
	if m, _ := r2.Manifest(2); m.Status != StatusRetired {
		t.Fatalf("v2 status %q after demotion", m.Status)
	}
	if m, _ := r2.Manifest(1); m.Status != StatusActive {
		t.Fatalf("v1 status %q after SetActive", m.Status)
	}
}

// TestRegistryCrashSafety simulates a publish killed between the blob
// write and the manifest rename: the old manifest must stay intact, and
// reopening must garbage-collect the orphan blob and temp files.
func TestRegistryCrashSafety(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegistry(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish([]byte("survivor"), Manifest{}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}

	// Crash artifacts: a fully-written orphan blob (publish died after the
	// blob rename, before the manifest rename) and a half-written manifest
	// temp file (died mid-write).
	orphan := blobFor([]byte("never-manifested"))
	if err := os.WriteFile(filepath.Join(dir, orphan+".gob"), []byte("never-manifested"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName+".tmp"), []byte("{\"active\": 99, TRUNCATED"), 0o644); err != nil {
		t.Fatal(err)
	}

	r2, err := OpenRegistry(dir, -1)
	if err != nil {
		t.Fatalf("reopen over crash artifacts: %v", err)
	}
	after, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("manifest changed across crash recovery:\nbefore %s\nafter %s", before, after)
	}
	if len(r2.List()) != 1 || r2.List()[0].ID != blobFor([]byte("survivor")) {
		t.Fatalf("list after recovery = %+v", r2.List())
	}
	if _, err := os.Stat(filepath.Join(dir, orphan+".gob")); !os.IsNotExist(err) {
		t.Fatalf("orphan blob not garbage-collected: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("manifest temp file not removed: %v", err)
	}
	// The surviving version still serves its bytes.
	if _, blob, err := r2.Bundle(1); err != nil || string(blob) != "survivor" {
		t.Fatalf("Bundle(1) after recovery: %q, %v", blob, err)
	}
}

func TestRegistryPruneRetention(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegistry(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish([]byte("v1"), Manifest{}); err != nil {
		t.Fatal(err)
	}
	// v1 becomes active before retention pressure builds: it must survive
	// every later prune (it is the rollback target) even as the oldest.
	if err := r.SetActive(1); err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"v2", "v3", "v4", "v5"} {
		if _, err := r.Publish([]byte(b), Manifest{}); err != nil {
			t.Fatal(err)
		}
	}
	list := r.List()
	if len(list) != 5 {
		t.Fatalf("manifest entries = %d (lineage must survive pruning)", len(list))
	}
	var pruned, kept []int
	for _, m := range list {
		path := filepath.Join(dir, m.ID+".gob")
		if m.Status == StatusPruned {
			pruned = append(pruned, m.Version)
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("pruned v%d blob still on disk", m.Version)
			}
		} else {
			kept = append(kept, m.Version)
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("kept v%d blob missing: %v", m.Version, err)
			}
		}
	}
	// Active v1 plus the two newest non-active survive.
	if len(kept) != 3 || kept[0] != 1 {
		t.Fatalf("kept %v, pruned %v", kept, pruned)
	}
	if _, _, err := r.Bundle(pruned[0]); err == nil || !strings.Contains(err.Error(), "pruned") {
		t.Fatalf("Bundle(pruned) error = %v", err)
	}
}

func TestRegistryDetectsCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegistry(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Publish([]byte("pristine"), Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, m.ID+".gob"), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Bundle(m.Version); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt blob error = %v", err)
	}
}

func TestRegistryRefusesCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegistry(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish([]byte("x"), Manifest{}); err != nil {
		t.Fatal(err)
	}
	// Semantic corruption: active points at a version that does not exist.
	if err := os.WriteFile(filepath.Join(dir, manifestName),
		[]byte(`{"active": 7, "versions": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRegistry(dir, -1); err == nil {
		t.Fatal("expected reopen to refuse a manifest whose active version is unpublished")
	}
}
