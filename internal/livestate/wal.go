package livestate

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
	"repro/internal/trace"
)

// WAL/checkpoint file names inside the store directory.
const (
	walFile        = "events.wal"
	checkpointFile = "checkpoint.gob"
)

// walRecord is one WAL entry: the event plus its log sequence number.
// Records are written length-prefixed (uvarint) with a CRC32 trailer so a
// torn tail from a crash is detected and truncated, and LSNs let replay
// skip records already folded into a checkpoint.
type walRecord struct {
	LSN   uint64 `json:"lsn"`
	Event Event  `json:"event"`
}

// checkpointDTO is the gob checkpoint: full engine state as of LSN. Gen is
// the state generation (bumped by Seed/RestoreSnapshot); old checkpoints
// without the field decode as 0, which is still a valid generation.
type checkpointDTO struct {
	LSN   uint64
	Gen   uint64
	State dto
}

// StoreOptions configures a Store.
type StoreOptions struct {
	// Dir is the WAL/checkpoint directory. Empty means memory-only: the
	// engine works but nothing persists and Checkpoint is a no-op.
	Dir string
	// SegmentBytes rotates the active WAL into a sealed, immutable segment
	// once it grows past this size; sealed segments are what replication
	// streams to followers. 0 means 4 MiB; negative disables size-based
	// rotation (checkpoints still seal the active WAL).
	SegmentBytes int64
	// RetainSegments keeps up to this many sealed segments whose records a
	// checkpoint already covers, so followers can catch up over HTTP
	// instead of re-snapshotting. 0 means 4; negative keeps all.
	RetainSegments int
	// Logf, when set, receives recovery diagnostics.
	Logf func(format string, args ...any)
	// Tracer, when set, records WAL fsyncs and checkpoints as root
	// traces (slow or failing ones survive tail sampling).
	Tracer *obs.Tracer
}

// RecoverReport describes what OpenStore reconstructed.
type RecoverReport struct {
	// CheckpointLSN is the LSN the checkpoint covered (0 = no checkpoint).
	CheckpointLSN uint64
	// Replayed is the number of WAL records applied on top.
	Replayed uint64
	// SkippedLSN counts WAL records the checkpoint already covered.
	SkippedLSN uint64
	// ApplyErrors counts replayed events the engine rejected.
	ApplyErrors uint64
	// TruncatedBytes is the torn tail dropped from the WAL (0 = clean).
	TruncatedBytes int64
}

// StoreMetrics is the persistence half of the /metrics livestate gauges.
type StoreMetrics struct {
	// LSN is the last assigned log sequence number.
	LSN uint64
	// CheckpointLSN is the LSN covered by the newest checkpoint; the
	// difference to LSN is the WAL lag (records lost if the WAL vanished).
	CheckpointLSN uint64
	// WALBytes is the current active WAL file size.
	WALBytes int64
	// Checkpoints counts checkpoints taken since open.
	Checkpoints uint64
	// Persistent is false for memory-only stores.
	Persistent bool
	// DurableLSN is the newest fsynced LSN — the replication horizon.
	DurableLSN uint64
	// Gen is the state generation (bumped by Seed/RestoreSnapshot).
	Gen uint64
	// Segments counts sealed WAL segments retained on disk.
	Segments int
	// SegmentBytes is the total size of the sealed segments.
	SegmentBytes int64
	// OldestLSN is the first LSN still readable from disk; followers
	// behind it must re-snapshot.
	OldestLSN uint64
}

// Store couples an Engine with a write-ahead log and periodic gob
// checkpoints: every applied event is logged first, and recovery is
// checkpoint + WAL tail. Safe for concurrent use.
type Store struct {
	opt StoreOptions
	eng *Engine

	mu          sync.Mutex
	wal         *os.File
	walW        *bufio.Writer
	lsn         uint64
	ckptLSN     uint64
	walBytes    int64
	walScratch  []byte // reused record payload, see writeWALRecord
	checkpoints uint64
	recovered   RecoverReport
	closed      bool

	// Replication state: gen counts wholesale engine replacements,
	// durableLSN/syncedBytes bound what ReadWAL may serve, activeFirst is
	// the first LSN in the active WAL file, segs indexes sealed segments,
	// and updated wakes long-poll waiters when durable records arrive.
	gen         uint64
	durableLSN  uint64
	syncedBytes int64
	activeFirst uint64
	segs        []segInfo
	updated     chan struct{}
}

// OpenStore opens (or creates) a store, recovering engine state from the
// newest checkpoint plus the WAL tail when Dir holds any.
func OpenStore(opt StoreOptions) (*Store, error) {
	if opt.SegmentBytes == 0 {
		opt.SegmentBytes = 4 << 20
	}
	if opt.RetainSegments == 0 {
		opt.RetainSegments = 4
	}
	s := &Store{opt: opt, eng: NewEngine(), updated: make(chan struct{})}
	if opt.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("livestate: store dir: %w", err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.walPath(), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("livestate: open wal: %w", err)
	}
	// Drop any torn tail so appends continue from the last good record.
	size := s.walBytes
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, fmt.Errorf("livestate: truncate wal tail: %w", err)
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	s.wal = f
	s.walW = bufio.NewWriterSize(f, walBufBytes)
	// Everything recovered is on disk already, so it is all durable.
	s.durableLSN = s.lsn
	s.syncedBytes = s.walBytes
	return s, nil
}

func (s *Store) walPath() string        { return filepath.Join(s.opt.Dir, walFile) }
func (s *Store) checkpointPath() string { return filepath.Join(s.opt.Dir, checkpointFile) }

func (s *Store) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// recover loads the checkpoint (if any), replays the sealed segments in
// LSN order, then replays the active WAL tail.
func (s *Store) recover() error {
	if f, err := os.Open(s.checkpointPath()); err == nil {
		var ck checkpointDTO
		derr := gob.NewDecoder(f).Decode(&ck)
		f.Close()
		if derr != nil {
			// A half-written checkpoint never replaces the old one (tmp +
			// rename), so a corrupt file here is unexpected — refuse to
			// silently start empty.
			return fmt.Errorf("livestate: corrupt checkpoint %s: %w", s.checkpointPath(), derr)
		}
		s.eng.restoreDTO(ck.State)
		s.lsn = ck.LSN
		s.ckptLSN = ck.LSN
		s.gen = ck.Gen
		s.recovered.CheckpointLSN = ck.LSN
	} else if !os.IsNotExist(err) {
		return err
	}

	// Sealed segments were fsynced before sealing, so corruption inside
	// one is external damage; replaying past it would leave a silent hole
	// in the engine state, so refuse to start instead.
	segs, err := listSegments(s.opt.Dir)
	if err != nil {
		return err
	}
	for i := range segs {
		f, err := os.Open(segs[i].path)
		if err != nil {
			return err
		}
		br := bufio.NewReader(f)
		var first, last uint64
		for {
			rec, _, rerr := readWALFrame(br)
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				f.Close()
				return fmt.Errorf("livestate: corrupt sealed segment %s: %w", segs[i].path, rerr)
			}
			if first == 0 {
				first = rec.LSN
			}
			last = rec.LSN
			s.replayRecord(rec)
		}
		f.Close()
		if first == 0 {
			// An empty sealed segment cannot happen through rotation;
			// drop the stray file rather than indexing it.
			os.Remove(segs[i].path)
			continue
		}
		segs[i].first, segs[i].last = first, last
		s.segs = append(s.segs, segs[i])
	}

	f, err := os.Open(s.walPath())
	if os.IsNotExist(err) {
		s.activeFirst = s.lsn + 1
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var good int64
	for {
		rec, frame, rerr := readWALFrame(br)
		if rerr != nil {
			if rerr != io.EOF {
				s.recovered.TruncatedBytes = walSize(f) - good
				s.logf("livestate: wal %s: dropping torn tail (%d bytes): %v",
					s.walPath(), s.recovered.TruncatedBytes, rerr)
			}
			break
		}
		good += int64(len(frame))
		if s.activeFirst == 0 {
			s.activeFirst = rec.LSN
		}
		s.replayRecord(rec)
	}
	s.walBytes = good
	if s.activeFirst == 0 {
		s.activeFirst = s.lsn + 1
	}
	return nil
}

// replayRecord folds one recovered WAL record into the engine, honoring
// the checkpoint's LSN coverage.
func (s *Store) replayRecord(rec walRecord) {
	if rec.LSN <= s.ckptLSN {
		s.recovered.SkippedLSN++
		return
	}
	if err := s.eng.ApplyEvent(rec.Event); err != nil {
		s.recovered.ApplyErrors++
	}
	s.recovered.Replayed++
	if rec.LSN > s.lsn {
		s.lsn = rec.LSN
	}
}

func walSize(f *os.File) int64 {
	fi, err := f.Stat()
	if err != nil {
		return 0
	}
	return fi.Size()
}

// Recovered returns what OpenStore reconstructed.
func (s *Store) Recovered() RecoverReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Engine returns the live engine (shared, concurrency-safe).
func (s *Store) Engine() *Engine { return s.eng }

// Apply logs the event then applies it to the engine (write-ahead order).
// The record is only buffered: it is neither durable nor visible to
// replication until the next Sync. Events the engine rejects are still
// logged — replay rejects them identically, so recovery stays
// deterministic — and their error is returned for the caller's accounting.
// The store mutex is held across both steps so engine order always matches
// WAL (LSN) order.
func (s *Store) Apply(ev Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("livestate: store is closed")
	}
	return s.applyLocked(s.lsn+1, ev)
}

// Sync flushes buffered WAL records and fsyncs, making every event applied
// so far durable and advancing the LSN replication may serve. It is the
// write path's only commit point — Apply never fsyncs — so ingest paths
// call it once per batch before acknowledging the batch: a crash can then
// only lose events that were never acknowledged.
func (s *Store) Sync() error {
	if s.opt.Dir == "" {
		// Memory-only store: sync is a no-op; don't emit phantom
		// wal_sync traces on every ingest batch.
		return nil
	}
	tb, root := s.opt.Tracer.StartRoot("wal_sync")
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		err := fmt.Errorf("livestate: store is closed")
		s.opt.Tracer.FinishRoot(tb, root, err)
		return err
	}
	err := s.sync()
	root.SetAttrInt("lsn", int64(s.lsn))
	s.mu.Unlock()
	s.opt.Tracer.FinishRoot(tb, root, err)
	return err
}

// sync flushes and fsyncs the WAL, advancing the durable LSN replication
// is allowed to serve. Caller holds s.mu.
func (s *Store) sync() error {
	if s.walW == nil {
		return nil
	}
	if err := s.walW.Flush(); err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.bumpDurableLocked()
	return nil
}

// Seed bulk-loads a trace into the engine and immediately checkpoints, so
// the load survives a restart without being event-logged row by row. The
// state generation bumps: the engine was replaced outside the WAL stream,
// so followers replaying records must re-snapshot.
func (s *Store) Seed(tr *trace.Trace) (SeedReport, error) {
	s.mu.Lock()
	s.gen++
	s.mu.Unlock()
	rep := s.eng.SeedFromTrace(tr)
	if err := s.Checkpoint(); err != nil {
		return rep, err
	}
	return rep, nil
}

// Checkpoint writes the engine state to disk (tmp + rename, fsynced) and
// seals the active WAL into a sealed segment: records at or below the
// checkpoint LSN are subsumed for recovery, but sealed segments are
// retained (up to RetainSegments) so followers can still catch up over
// the WAL instead of re-snapshotting. A crash between the rename and the
// seal is safe — replay skips subsumed records by LSN. No-op for
// memory-only stores.
func (s *Store) Checkpoint() error {
	if s.opt.Dir == "" {
		return nil
	}
	tb, root := s.opt.Tracer.StartRoot("checkpoint")
	err := s.checkpoint(root)
	s.opt.Tracer.FinishRoot(tb, root, err)
	return err
}

func (s *Store) checkpoint(root obs.SpanHandle) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("livestate: store is closed")
	}
	if err := s.sync(); err != nil {
		return err
	}
	root.SetAttrInt("lsn", int64(s.lsn))
	ck := checkpointDTO{LSN: s.lsn, Gen: s.gen, State: s.eng.snapshotDTO()}
	if err := s.writeCheckpointLocked(ck); err != nil {
		return err
	}
	if err := s.rotateLocked(); err != nil {
		return err
	}
	s.ckptLSN = ck.LSN
	s.checkpoints++
	s.pruneSegmentsLocked()
	return nil
}

// writeCheckpointLocked persists ck via tmp + rename + fsync. Caller holds
// s.mu.
func (s *Store) writeCheckpointLocked(ck checkpointDTO) error {
	tmp := s.checkpointPath() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(&ck); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("livestate: encode checkpoint: %w", err)
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
	if err := os.Rename(tmp, s.checkpointPath()); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Metrics snapshots the persistence gauges.
func (s *Store) Metrics() StoreMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := StoreMetrics{
		LSN:           s.lsn,
		CheckpointLSN: s.ckptLSN,
		WALBytes:      s.walBytes,
		Checkpoints:   s.checkpoints,
		Persistent:    s.opt.Dir != "",
		DurableLSN:    s.durableLSN,
		Gen:           s.gen,
		Segments:      len(s.segs),
		OldestLSN:     s.oldestLSNLocked(),
	}
	for _, seg := range s.segs {
		m.SegmentBytes += seg.bytes
	}
	return m
}

// Close syncs and closes the WAL. The engine stays readable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.walW == nil {
		return nil
	}
	if err := s.sync(); err != nil {
		s.wal.Close()
		return err
	}
	return s.wal.Close()
}

// walBufBytes sizes the WAL's bufio.Writer so that a whole /events body
// (≈34 KB for 256 events) reaches the file as one write at Sync.
const walBufBytes = 64 << 10

// writeWALRecord appends one length-prefixed record:
//
//	uvarint(len(payload)) | payload (JSON walRecord) | crc32(payload) LE
//
// The payload is built in *scratch, which is kept (grown) for reuse.
func writeWALRecord(w *bufio.Writer, scratch *[]byte, lsn uint64, ev *Event) (int64, error) {
	payload, err := appendWALRecord((*scratch)[:0], lsn, ev)
	if err != nil {
		return 0, err
	}
	*scratch = payload
	var hdr [binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(hdr[:], uint64(len(payload)))
	if _, err := w.Write(hdr[:hn]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(crc[:]); err != nil {
		return 0, err
	}
	return int64(hn + len(payload) + 4), nil
}

// maxWALRecordBytes bounds a single record so a corrupt length prefix
// cannot trigger a giant allocation.
const maxWALRecordBytes = 16 << 20

// readWALFrame reads one record plus its raw encoded frame (reconstructed
// byte-for-byte: uvarint length, payload, CRC trailer). It is the only
// frame reader: recovery, WALScanner and copyFrames all go through it.
// io.EOF means a clean end; any other error means a torn or corrupt tail.
func readWALFrame(br *bufio.Reader) (walRecord, []byte, error) {
	ln, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return walRecord{}, nil, io.EOF
		}
		return walRecord{}, nil, fmt.Errorf("length prefix: %w", err)
	}
	if ln == 0 || ln > maxWALRecordBytes {
		return walRecord{}, nil, fmt.Errorf("implausible record length %d", ln)
	}
	var hdr [binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(hdr[:], ln)
	frame := make([]byte, hn+int(ln)+4)
	copy(frame, hdr[:hn])
	if _, err := io.ReadFull(br, frame[hn:]); err != nil {
		return walRecord{}, nil, fmt.Errorf("payload: %w", err)
	}
	payload := frame[hn : hn+int(ln)]
	crc := binary.LittleEndian.Uint32(frame[hn+int(ln):])
	if crc != crc32.ChecksumIEEE(payload) {
		return walRecord{}, nil, fmt.Errorf("crc mismatch")
	}
	rec, err := decodeWALRecord(payload)
	if err != nil {
		return walRecord{}, nil, err
	}
	return rec, frame, nil
}

// decodeWALRecord decodes a payload with trace.JSONReader, falling back to
// json.Unmarshal (the format's definition) outside the reader's subset.
func decodeWALRecord(payload []byte) (walRecord, error) {
	var rec walRecord
	if readWALRecord(payload, &rec) {
		return rec, nil
	}
	var std walRecord // not rec: what json.Unmarshal is handed escapes
	if err := json.Unmarshal(payload, &std); err != nil {
		return walRecord{}, fmt.Errorf("decode: %w", err)
	}
	return std, nil
}

func readWALRecord(payload []byte, rec *walRecord) bool {
	r := trace.NewJSONReader(payload)
	return r.Object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "lsn":
			rec.LSN, ok = r.Uint64()
		case "event":
			ok = readEvent(&r, &rec.Event)
		}
		return ok
	}) && r.End()
}
