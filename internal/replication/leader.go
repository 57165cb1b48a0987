// Package replication ships the livestate write-ahead log from a leader
// troutd to read-scale followers over HTTP.
//
// The leader serves three endpoints off its WAL-backed Store:
//
//	GET /replication/wal?from=<lsn>[&wait=<dur>][&max_bytes=<n>]
//	    — length-prefixed CRC32 frames for records with LSN > from, up to
//	    max_bytes. With wait, the request long-polls until durable records
//	    arrive or the window closes (204). 410 means `from` precedes the
//	    oldest retained segment (re-snapshot); 409 means `from` is ahead
//	    of the leader (the follower diverged; re-snapshot).
//	GET /replication/snapshot — gob of the full engine state + LSN + gen.
//	GET /replication/status   — JSON replication position summary.
//
// Every response carries X-Trout-Leader-LSN (the durable replication
// horizon) and X-Trout-State-Gen (the state generation; a change means the
// engine was replaced wholesale and replayed history is void).
//
// Only durable (fsynced) records are ever served, so a follower cannot get
// ahead of what a kill -9'd leader recovers: an acknowledged-and-shipped
// event is on disk by construction.
package replication

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/livestate"
	"repro/internal/resilience"
)

// Wire headers shared by leader and follower.
const (
	HeaderLeaderLSN   = "X-Trout-Leader-Lsn"
	HeaderStateGen    = "X-Trout-State-Gen"
	HeaderOldestLSN   = "X-Trout-Oldest-Lsn"
	HeaderSnapshotLSN = "X-Trout-Snapshot-Lsn"
)

// The serving side's bounds.
const (
	// maxBatchBytes caps one WAL response.
	maxBatchBytes int64 = 4 << 20
	// maxWait caps the long-poll window a follower may request.
	maxWait = 55 * time.Second
)

// Leader serves a store's WAL and snapshots to followers.
type Leader struct {
	store *livestate.Store
}

// NewLeader wraps store for replication serving. The store must be
// WAL-backed (Persistent) to serve /replication/wal; snapshots work either
// way.
func NewLeader(store *livestate.Store) *Leader {
	return &Leader{store: store}
}

// Register mounts the replication endpoints on mux.
func (l *Leader) Register(mux *http.ServeMux) {
	mux.HandleFunc("/replication/wal", l.handleWAL)
	mux.HandleFunc("/replication/snapshot", l.handleSnapshot)
	mux.HandleFunc("/replication/status", l.handleStatus)
}

// setPosHeaders stamps the shared position headers.
func (l *Leader) setPosHeaders(w http.ResponseWriter) {
	m := l.store.Metrics()
	w.Header().Set(HeaderLeaderLSN, strconv.FormatUint(m.DurableLSN, 10))
	w.Header().Set(HeaderStateGen, strconv.FormatUint(m.Gen, 10))
	w.Header().Set(HeaderOldestLSN, strconv.FormatUint(m.OldestLSN, 10))
}

func (l *Leader) handleWAL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		resilience.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	if !l.store.Persistent() {
		resilience.WriteError(w, http.StatusNotImplemented,
			"replication: leader runs memory-only (no -wal-dir); only snapshots are served")
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil && q.Get("from") != "" {
		resilience.WriteError(w, http.StatusBadRequest, fmt.Sprintf("replication: bad from: %v", err))
		return
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			resilience.WriteError(w, http.StatusBadRequest, "replication: bad wait")
			return
		}
		if d > maxWait {
			d = maxWait
		}
		wait = d
	}

	// A follower claiming a position ahead of the durable horizon has
	// diverged (e.g. it outlived a leader that lost its WAL dir); signal
	// before long-polling or it would idle out to 204s forever.
	if from > l.store.DurableLSN() {
		l.setPosHeaders(w)
		resilience.WriteError(w, http.StatusConflict,
			fmt.Sprintf("replication: follower at %d is ahead of leader %d (diverged; re-snapshot)",
				from, l.store.DurableLSN()))
		return
	}

	// Long-poll: grab the notification channel BEFORE reading the durable
	// LSN so an append between the two cannot be missed.
	deadline := time.Now().Add(wait)
	for {
		ch := l.store.Updated()
		if l.store.DurableLSN() > from {
			break
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			l.setPosHeaders(w)
			w.WriteHeader(http.StatusNoContent)
			return
		}
		t := time.NewTimer(remaining)
		select {
		case <-r.Context().Done():
			t.Stop()
			return
		case <-t.C:
		case <-ch:
			t.Stop()
		}
	}

	// Buffer the frames (bounded by maxBatchBytes) so an I/O error mid-read
	// never corrupts an already-started 200 stream.
	var buf bytes.Buffer
	_, _, err = l.store.ReadWAL(from, maxBatchBytes, &buf)
	if err == livestate.ErrSubsumed {
		l.setPosHeaders(w)
		resilience.WriteError(w, http.StatusGone,
			fmt.Sprintf("replication: records after %d no longer retained (oldest %d); re-snapshot",
				from, l.store.OldestLSN()))
		return
	}
	if err != nil {
		resilience.WriteError(w, http.StatusInternalServerError, fmt.Sprintf("replication: %v", err))
		return
	}
	l.setPosHeaders(w)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

func (l *Leader) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		resilience.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	var buf bytes.Buffer
	lsn, err := l.store.WriteSnapshot(&buf)
	if err != nil {
		resilience.WriteError(w, http.StatusInternalServerError, fmt.Sprintf("replication: snapshot: %v", err))
		return
	}
	l.setPosHeaders(w)
	w.Header().Set(HeaderSnapshotLSN, strconv.FormatUint(lsn, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// StatusResponse is the /replication/status payload.
type StatusResponse struct {
	LSN           uint64 `json:"lsn"`
	DurableLSN    uint64 `json:"durable_lsn"`
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	OldestLSN     uint64 `json:"oldest_lsn"`
	Gen           uint64 `json:"state_gen"`
	Segments      int    `json:"segments"`
	SegmentBytes  int64  `json:"segment_bytes"`
	WALBytes      int64  `json:"wal_bytes"`
	Persistent    bool   `json:"persistent"`
}

func (l *Leader) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		resilience.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	m := l.store.Metrics()
	l.setPosHeaders(w)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(StatusResponse{
		LSN: m.LSN, DurableLSN: m.DurableLSN, CheckpointLSN: m.CheckpointLSN,
		OldestLSN: m.OldestLSN, Gen: m.Gen, Segments: m.Segments,
		SegmentBytes: m.SegmentBytes, WALBytes: m.WALBytes, Persistent: m.Persistent,
	})
}
