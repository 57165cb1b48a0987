package livestate

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Sealed-segment file names: seg-<first LSN, zero-padded>.wal. The active
// WAL (events.wal) is rotated into a sealed segment when it outgrows
// SegmentBytes or when a checkpoint seals it; sealed segments are immutable
// and are what GET /replication/wal streams to followers.
const (
	segPrefix = "seg-"
	segSuffix = ".wal"
)

func segName(firstLSN uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, firstLSN, segSuffix)
}

// segInfo indexes one sealed, immutable segment on disk.
type segInfo struct {
	path  string
	first uint64 // first LSN in the file
	last  uint64 // last LSN in the file
	bytes int64
}

// ErrSubsumed is returned by ReadWAL when the requested position is older
// than the oldest record still on disk — a checkpoint subsumed it and
// retention dropped the segment. The follower must re-snapshot.
var ErrSubsumed = errors.New("livestate: requested WAL position subsumed by checkpoint")

// LSNGapError is returned by ApplyAt when a replicated record's LSN is not
// exactly one past the store's: the follower missed records (gap) or the
// leader rewound (divergence). Either way the follower must re-snapshot.
type LSNGapError struct {
	Have uint64 // the store's current LSN
	Got  uint64 // the record's LSN
}

func (e *LSNGapError) Error() string {
	return fmt.Sprintf("livestate: lsn gap: store at %d, record is %d", e.Have, e.Got)
}

// rotateLocked seals the active WAL into an immutable segment and opens a
// fresh active file. Caller holds s.mu; the active WAL must be non-empty.
func (s *Store) rotateLocked() error {
	if s.walW == nil || s.walBytes == 0 {
		return nil
	}
	if err := s.sync(); err != nil {
		return err
	}
	if err := s.wal.Close(); err != nil {
		return fmt.Errorf("livestate: close wal for rotation: %w", err)
	}
	sealed := filepath.Join(s.opt.Dir, segName(s.activeFirst))
	if err := os.Rename(s.walPath(), sealed); err != nil {
		return fmt.Errorf("livestate: seal segment: %w", err)
	}
	s.segs = append(s.segs, segInfo{path: sealed, first: s.activeFirst, last: s.lsn, bytes: s.walBytes})
	f, err := os.OpenFile(s.walPath(), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("livestate: open wal after rotation: %w", err)
	}
	s.wal = f
	s.walW.Reset(f)
	s.walBytes = 0
	s.syncedBytes = 0
	s.activeFirst = s.lsn + 1
	return nil
}

// pruneSegmentsLocked deletes the oldest checkpoint-covered segments,
// keeping at most opt.RetainSegments sealed segments for follower
// catch-up. Caller holds s.mu.
func (s *Store) pruneSegmentsLocked() {
	keep := s.opt.RetainSegments
	if keep < 0 {
		return // keep everything
	}
	for len(s.segs) > keep && s.segs[0].last <= s.ckptLSN {
		if err := os.Remove(s.segs[0].path); err != nil && !os.IsNotExist(err) {
			s.logf("livestate: prune segment %s: %v", s.segs[0].path, err)
			return
		}
		s.segs = s.segs[1:]
	}
}

// wipeWALLocked drops every WAL record on disk — active and sealed — after
// the engine state was replaced wholesale (RestoreSnapshot). Caller holds
// s.mu and must write a fresh checkpoint afterwards.
func (s *Store) wipeWALLocked() error {
	for _, seg := range s.segs {
		if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	s.segs = nil
	if s.walW != nil {
		if err := s.walW.Flush(); err != nil {
			return err
		}
		if err := s.wal.Truncate(0); err != nil {
			return err
		}
		if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
			return err
		}
		s.walW.Reset(s.wal)
	}
	s.walBytes = 0
	s.syncedBytes = 0
	s.activeFirst = s.lsn + 1
	return nil
}

// listSegments scans the store directory for sealed segments, ordered by
// first LSN (taken from the file name; the replay pass verifies it).
func listSegments(dir string) ([]segInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if err != nil {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, segInfo{path: filepath.Join(dir, name), first: first, bytes: info.Size()})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].first < segs[b].first })
	return segs, nil
}

// ApplyAt applies a replicated event under its leader-assigned LSN — the
// follower counterpart of Apply. The LSN must be exactly one past the
// store's; anything else returns *LSNGapError and applies nothing. Engine
// rejections are logged to the WAL like Apply's (replay must see the same
// stream the leader wrote) and returned for the caller's accounting.
func (s *Store) ApplyAt(lsn uint64, ev Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("livestate: store is closed")
	}
	if lsn != s.lsn+1 {
		return &LSNGapError{Have: s.lsn, Got: lsn}
	}
	return s.applyLocked(lsn, ev)
}

// applyLocked appends the record and applies it to the engine. It never
// fsyncs: Sync is the commit point (rotation syncs what it seals). Caller
// holds s.mu and has already assigned lsn (== s.lsn+1).
func (s *Store) applyLocked(lsn uint64, ev Event) error {
	s.lsn = lsn
	if s.walW != nil {
		n, err := writeWALRecord(s.walW, &s.walScratch, lsn, &ev)
		if err != nil {
			return fmt.Errorf("livestate: wal append: %w", err)
		}
		s.walBytes += n
		if s.opt.SegmentBytes > 0 && s.walBytes >= s.opt.SegmentBytes {
			if err := s.rotateLocked(); err != nil {
				return err
			}
		}
	} else {
		// Memory-only stores have no durability gap: every applied
		// record is as durable as it will ever be.
		s.bumpDurableLocked()
	}
	return s.eng.ApplyEvent(ev)
}

// bumpDurableLocked advances the durable LSN to the store's LSN and wakes
// long-poll waiters. Caller holds s.mu.
func (s *Store) bumpDurableLocked() {
	if s.durableLSN == s.lsn {
		return
	}
	s.durableLSN = s.lsn
	s.syncedBytes = s.walBytes
	close(s.updated)
	s.updated = make(chan struct{})
}

// DurableLSN returns the newest LSN guaranteed to be on disk (every LSN for
// memory-only stores). Replication serves only durable records, so a
// follower can never get ahead of what a crashed leader recovers.
func (s *Store) DurableLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durableLSN
}

// Gen returns the state generation: it increments whenever the engine is
// replaced outside the WAL stream (Seed, RestoreSnapshot), telling
// followers their replayed history is void and they must re-snapshot.
func (s *Store) Gen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Updated returns a channel closed the next time durable records are added
// — the long-poll hook for GET /replication/wal. Callers re-fetch the
// channel after each wake-up.
func (s *Store) Updated() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.updated
}

// Persistent reports whether the store writes a WAL (replication's WAL
// endpoint needs one; memory-only stores can only ship snapshots).
func (s *Store) Persistent() bool { return s.opt.Dir != "" }

// oldestLSNLocked is the first LSN still readable from disk.
func (s *Store) oldestLSNLocked() uint64 {
	if len(s.segs) > 0 {
		return s.segs[0].first
	}
	return s.activeFirst
}

// OldestLSN returns the first LSN still readable from disk; requests below
// it get ErrSubsumed and must re-snapshot.
func (s *Store) OldestLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.oldestLSNLocked()
}

// ReadWAL streams raw length-prefixed frames for records with LSN in
// (from, durable] into w, up to roughly maxBytes (always at least one
// record when any is due). It returns the last LSN written and the byte
// count. ErrSubsumed means from precedes the oldest retained record. A
// corrupt sealed segment is skipped to the next segment — the follower
// sees the LSN gap and re-snapshots — so one bad file degrades a replica
// instead of wedging the leader.
func (s *Store) ReadWAL(from uint64, maxBytes int64, w io.Writer) (last uint64, n int64, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return from, 0, fmt.Errorf("livestate: store is closed")
	}
	durable := s.durableLSN
	oldest := s.oldestLSNLocked()
	segs := append([]segInfo(nil), s.segs...)
	synced := s.syncedBytes
	var active *os.File
	if s.wal != nil && synced > 0 && durable >= s.activeFirst {
		// Open (and pin) the active file while holding the lock so a
		// concurrent rotation cannot swap it under us; the fd keeps
		// reading the sealed bytes even after a rename.
		active, err = os.Open(s.walPath())
		if err != nil {
			s.mu.Unlock()
			return from, 0, err
		}
	}
	s.mu.Unlock()
	if active != nil {
		defer active.Close()
	}

	if from >= durable {
		return from, 0, nil
	}
	if from+1 < oldest {
		return from, 0, ErrSubsumed
	}
	if maxBytes <= 0 {
		maxBytes = 4 << 20
	}
	last = from
	for _, seg := range segs {
		if seg.last <= from {
			continue
		}
		if n >= maxBytes {
			return last, n, nil
		}
		f, oerr := os.Open(seg.path)
		if oerr != nil {
			// Pruned (or externally removed) mid-read: the follower
			// detects the gap and re-snapshots.
			continue
		}
		wrote, lastSeen, cerr := copyFrames(f, w, from, maxBytes-n, -1)
		f.Close()
		n += wrote
		if lastSeen > last {
			last = lastSeen
		}
		if cerr != nil && cerr != io.EOF {
			// Corrupt sealed segment: skip ahead; followers re-snapshot.
			continue
		}
	}
	if active != nil && n < maxBytes && last < durable {
		wrote, lastSeen, _ := copyFrames(active, w, last, maxBytes-n, synced)
		n += wrote
		if lastSeen > last {
			last = lastSeen
		}
	}
	return last, n, nil
}

// copyFrames scans WAL frames from r, copying those with LSN > from to w
// verbatim until budget bytes are written or limit bytes consumed
// (limit < 0 = whole stream). It returns bytes written, the last LSN
// copied, and the scan error (io.EOF on a clean end).
func copyFrames(r io.Reader, w io.Writer, from uint64, budget, limit int64) (n int64, last uint64, err error) {
	var src io.Reader = r
	if limit >= 0 {
		src = io.LimitReader(r, limit)
	}
	br := bufio.NewReaderSize(src, 64<<10)
	for n < budget {
		rec, frame, rerr := readWALFrame(br)
		if rerr != nil {
			return n, last, rerr
		}
		if rec.LSN <= from {
			continue
		}
		if _, werr := w.Write(frame); werr != nil {
			return n, last, werr
		}
		n += int64(len(frame))
		last = rec.LSN
	}
	return n, last, nil
}

// WALScanner decodes a stream of length-prefixed WAL frames — the follower
// side of GET /replication/wal.
type WALScanner struct {
	br    *bufio.Reader
	bytes int64
}

// NewWALScanner wraps r for frame-by-frame decoding.
func NewWALScanner(r io.Reader) *WALScanner {
	return &WALScanner{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next returns the next record. io.EOF means a clean end of stream; any
// other error means a torn or corrupt frame.
func (sc *WALScanner) Next() (uint64, Event, error) {
	rec, frame, err := readWALFrame(sc.br)
	if err != nil {
		return 0, Event{}, err
	}
	sc.bytes += int64(len(frame))
	return rec.LSN, rec.Event, nil
}

// Bytes returns the total frame bytes decoded so far.
func (sc *WALScanner) Bytes() int64 { return sc.bytes }

// WriteSnapshot gob-encodes the full engine state plus its LSN and
// generation — what GET /replication/snapshot serves — and returns the
// LSN the snapshot covers. State and LSN are captured atomically.
func (s *Store) WriteSnapshot(w io.Writer) (uint64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("livestate: store is closed")
	}
	ck := checkpointDTO{LSN: s.lsn, Gen: s.gen, State: s.eng.snapshotDTO()}
	s.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&ck); err != nil {
		return 0, fmt.Errorf("livestate: encode snapshot: %w", err)
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return 0, err
	}
	return ck.LSN, nil
}

// RestoreSnapshot replaces the engine state from a leader snapshot: the
// local WAL history becomes void, so it is wiped and (for persistent
// stores) a fresh checkpoint makes the restore survive a restart. Returns
// the LSN the store resumes replication from.
func (s *Store) RestoreSnapshot(r io.Reader) (uint64, error) {
	var ck checkpointDTO
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return 0, fmt.Errorf("livestate: decode snapshot: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("livestate: store is closed")
	}
	s.eng.restoreDTO(ck.State)
	s.lsn = ck.LSN
	s.gen = ck.Gen
	s.ckptLSN = ck.LSN
	if err := s.wipeWALLocked(); err != nil {
		return 0, err
	}
	s.bumpDurableLocked()
	if s.opt.Dir != "" {
		if err := s.writeCheckpointLocked(ck); err != nil {
			return 0, err
		}
	}
	return ck.LSN, nil
}
