package livestate

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// applyAll replays a ReadWAL byte stream into a follower store, returning
// the applied count.
func applyAll(t *testing.T, dst *Store, stream []byte) int {
	t.Helper()
	sc := NewWALScanner(bytes.NewReader(stream))
	n := 0
	for {
		lsn, ev, err := sc.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		if lsn <= dst.Metrics().LSN {
			continue
		}
		if err := dst.ApplyAt(lsn, ev); err != nil {
			t.Fatalf("applyAt %d: %v", lsn, err)
		}
		n++
	}
}

func TestSegmentRotationAndRead(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force several rotations over a small stream.
	s, err := OpenStore(StoreOptions{Dir: dir, SegmentBytes: 512, RetainSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	streamEvents(t, s, 1, 40)
	m := s.Metrics()
	if m.Segments == 0 {
		t.Fatalf("no rotation happened: %+v", m)
	}
	if m.OldestLSN != 1 {
		t.Fatalf("oldest LSN %d, want 1 (nothing pruned)", m.OldestLSN)
	}
	if m.DurableLSN != m.LSN {
		t.Fatalf("durable %d != lsn %d after the body's Sync", m.DurableLSN, m.LSN)
	}

	// A follower replaying the shipped stream must converge bit for bit.
	var buf bytes.Buffer
	last, _, err := s.ReadWAL(0, 1<<30, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if last != m.LSN {
		t.Fatalf("ReadWAL reached %d, want %d", last, m.LSN)
	}
	f, err := OpenStore(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, f, buf.Bytes())
	if lf, ls := f.Engine().Fingerprint(), s.Engine().Fingerprint(); lf != ls {
		t.Fatalf("follower fingerprint %x != leader %x", lf, ls)
	}

	// Recovery must replay sealed segments + active tail identically.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(StoreOptions{Dir: dir, SegmentBytes: 512, RetainSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, want := s2.Engine().Fingerprint(), f.Engine().Fingerprint(); got != want {
		t.Fatalf("recovered fingerprint %x != replicated %x", got, want)
	}
}

func TestReadWALFromMiddleAndLongTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(StoreOptions{Dir: dir, SegmentBytes: 256, RetainSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	streamEvents(t, s, 1, 20)
	lsn := s.Metrics().LSN

	// Start mid-stream: only records past `from` are shipped.
	from := lsn / 2
	var buf bytes.Buffer
	last, _, err := s.ReadWAL(from, 1<<30, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if last != lsn {
		t.Fatalf("last %d want %d", last, lsn)
	}
	sc := NewWALScanner(bytes.NewReader(buf.Bytes()))
	firstLSN, _, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	if firstLSN != from+1 {
		t.Fatalf("first shipped LSN %d, want %d", firstLSN, from+1)
	}

	// At the head: nothing new, no error.
	buf.Reset()
	last, n, err := s.ReadWAL(lsn, 1<<30, &buf)
	if err != nil || n != 0 || last != lsn {
		t.Fatalf("at-head read: last=%d n=%d err=%v", last, n, err)
	}
}

func TestReadWALSubsumedAfterPrune(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(StoreOptions{Dir: dir, SegmentBytes: 256, RetainSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	streamEvents(t, s, 1, 30)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Segments > 1 {
		t.Fatalf("retention kept %d segments, want <= 1", m.Segments)
	}
	if m.OldestLSN <= 1 {
		t.Fatalf("nothing pruned: oldest %d", m.OldestLSN)
	}
	var buf bytes.Buffer
	if _, _, err := s.ReadWAL(0, 1<<30, &buf); err != ErrSubsumed {
		t.Fatalf("pre-prune read err = %v, want ErrSubsumed", err)
	}
}

func TestApplyAtContiguity(t *testing.T) {
	s, err := OpenStore(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j := mkJob(1, 1, "shared", 1000, 0, 0, 0)
	if err := s.ApplyAt(1, submitEvent(j)); err != nil {
		t.Fatal(err)
	}
	// A gap and a rewind must both be refused as *LSNGapError.
	j2 := mkJob(2, 1, "shared", 1010, 0, 0, 0)
	err = s.ApplyAt(3, submitEvent(j2))
	if _, ok := err.(*LSNGapError); !ok {
		t.Fatalf("gap err = %v, want *LSNGapError", err)
	}
	err = s.ApplyAt(1, submitEvent(j2))
	if _, ok := err.(*LSNGapError); !ok {
		t.Fatalf("rewind err = %v, want *LSNGapError", err)
	}
	if err := s.ApplyAt(2, submitEvent(j2)); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().LSN; got != 2 {
		t.Fatalf("lsn %d want 2", got)
	}
}

func TestSnapshotShipAndRestore(t *testing.T) {
	leader, err := OpenStore(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	streamEvents(t, leader, 1, 25)

	dir := t.TempDir()
	follower, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Stale local history that the snapshot must void.
	streamEvents(t, follower, 500, 5)

	var buf bytes.Buffer
	lsn, err := leader.WriteSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := follower.RestoreSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != lsn {
		t.Fatalf("restore lsn %d want %d", got, lsn)
	}
	if lf, ls := follower.Engine().Fingerprint(), leader.Engine().Fingerprint(); lf != ls {
		t.Fatalf("fingerprint %x != %x after snapshot restore", lf, ls)
	}
	if m := follower.Metrics(); m.WALBytes != 0 || m.Segments != 0 {
		t.Fatalf("restore left stale WAL: %+v", m)
	}

	// The restore must survive a follower restart via its own checkpoint.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	f2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if lf, ls := f2.Engine().Fingerprint(), leader.Engine().Fingerprint(); lf != ls {
		t.Fatalf("fingerprint %x != %x after follower restart", lf, ls)
	}
	if f2.Metrics().LSN != lsn {
		t.Fatalf("restarted follower lsn %d want %d", f2.Metrics().LSN, lsn)
	}
}

func TestSeedBumpsGen(t *testing.T) {
	s, err := OpenStore(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Gen() != 0 {
		t.Fatalf("fresh gen %d", s.Gen())
	}
	tr := &trace.Trace{Jobs: []trace.Job{mkJob(1, 1, "shared", 1000, 1000, 1100, 1200)}}
	if _, err := s.Seed(tr); err != nil {
		t.Fatal(err)
	}
	if s.Gen() != 1 {
		t.Fatalf("gen after seed = %d, want 1", s.Gen())
	}
}

func TestGenSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Jobs: []trace.Job{mkJob(1, 1, "shared", 1000, 1000, 1100, 1200)}}
	if _, err := s.Seed(tr); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Gen() != 1 {
		t.Fatalf("gen after restart = %d, want 1", s2.Gen())
	}
}

func TestCorruptSealedSegmentRefusesRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(StoreOptions{Dir: dir, SegmentBytes: 256, RetainSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	streamEvents(t, s, 1, 20)
	if s.Metrics().Segments == 0 {
		t.Fatal("no sealed segments to corrupt")
	}
	s.Close()

	// Truncate a sealed segment mid-record: silent replay past the hole
	// would corrupt engine state, so the store must refuse to open.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), segPrefix) {
			p := filepath.Join(dir, ent.Name())
			fi, _ := ent.Info()
			if err := os.Truncate(p, fi.Size()-3); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if _, err := OpenStore(StoreOptions{Dir: dir}); err == nil {
		t.Fatal("open succeeded over a corrupt sealed segment")
	}
}

// TestReadWALSkipsCorruptSealedSegment: serving tolerates what recovery
// refuses — a corrupt sealed segment is skipped so the leader stays up, and
// the follower heals through the re-snapshot path when it sees the gap.
func TestReadWALSkipsCorruptSealedSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(StoreOptions{Dir: dir, SegmentBytes: 256, RetainSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	streamEvents(t, s, 1, 30)
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("need >= 2 segments, got %d (err %v)", len(segs), err)
	}
	if err := os.Truncate(segs[0].path, segs[0].bytes-3); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	last, _, err := s.ReadWAL(0, 1<<30, &buf)
	if err != nil {
		t.Fatalf("serving should skip corruption, got %v", err)
	}
	if last != s.Metrics().LSN {
		t.Fatalf("read stopped at %d, want %d", last, s.Metrics().LSN)
	}
	// The shipped stream has a hole where the truncated record was — the
	// follower contiguity check must catch it.
	f, err := OpenStore(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewWALScanner(bytes.NewReader(buf.Bytes()))
	sawGap := false
	for {
		lsn, ev, serr := sc.Next()
		if serr != nil {
			break
		}
		if aerr := f.ApplyAt(lsn, ev); aerr != nil {
			if _, ok := aerr.(*LSNGapError); ok {
				sawGap = true
				break
			}
			t.Fatalf("apply: %v", aerr)
		}
	}
	if !sawGap {
		t.Fatal("follower replayed a holed stream without detecting the gap")
	}
}

// FuzzReadSegment throws arbitrary bytes at the segment-frame scanner: it
// must terminate with an error or EOF — never panic, hang, or allocate
// unboundedly — because followers feed it bytes straight off the network.
func FuzzReadSegment(f *testing.F) {
	// Seed with a valid two-record stream and mangled variants.
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for lsn, ev := range map[uint64]Event{
		1: submitEvent(mkJob(1, 1, "shared", 1000, 0, 0, 0)),
		2: {Type: EventEligible, Time: 1001, JobID: 1},
	} {
		if _, err := writeWALRecord(w, new([]byte), lsn, &ev); err != nil {
			f.Fatal(err)
		}
	}
	w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	f.Add(valid[1:])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Every CRC-valid payload the reader accepts decodes as json.Unmarshal
		// would decode it.
		for br := bufio.NewReader(bytes.NewReader(data)); ; {
			_, frame, err := readWALFrame(br)
			if err != nil {
				break
			}
			ln, hn := binary.Uvarint(frame)
			checkWALDecode(t, frame[hn:hn+int(ln)])
		}
		sc := NewWALScanner(bytes.NewReader(data))
		for {
			_, ev, err := sc.Next()
			if err != nil {
				return // torn/corrupt tail or clean EOF: both fine
			}
			// A CRC-valid frame must decode into something Validate can
			// classify without panicking.
			_ = ev.Validate()
		}
	})
}
