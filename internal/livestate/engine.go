package livestate

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/features"
	"repro/internal/trace"
)

// historyRetention is how long submissions stay indexed: the 24 h window
// the user-activity features need, plus an hour of slack so snapshots
// slightly behind the newest event still see a complete window.
const historyRetention = 86400 + 3600

// Engine apply errors, matchable with errors.Is. They mark events the
// engine refused (and counted), not engine corruption — a live stream with
// occasional duplicates or unknown references keeps flowing.
var (
	ErrUnknownJob = errors.New("livestate: event references unknown job")
	ErrDuplicate  = errors.New("livestate: duplicate event for job")
	ErrStale      = errors.New("livestate: event arrived after job reached a later phase")
)

// jobState is one tracked job plus its lifecycle phase. The embedded record
// accumulates times as events arrive (Eligible from the eligible event,
// Start from start, End+State from end/cancel).
type jobState struct {
	job   trace.Job
	phase Phase
}

// partState indexes one partition's active queue. Pending and running are
// kept sorted by job ID so snapshot extraction emits deterministic,
// trace-order-compatible slices without re-sorting.
type partState struct {
	pending sortedJobs
	running sortedJobs
}

// sortedJobs is a job-ID-sorted set of jobState pointers with O(log n)
// search and O(n) memmove insert/remove — active queues are small (hundreds
// to low thousands), where contiguous storage beats tree overhead.
type sortedJobs []*jobState

func (s sortedJobs) search(id int) int {
	return sort.Search(len(s), func(i int) bool { return s[i].job.ID >= id })
}

func (s *sortedJobs) insert(js *jobState) {
	i := s.search(js.job.ID)
	*s = append(*s, nil)
	copy((*s)[i+1:], (*s)[i:])
	(*s)[i] = js
}

func (s *sortedJobs) remove(id int) bool {
	i := s.search(id)
	if i >= len(*s) || (*s)[i].job.ID != id {
		return false
	}
	copy((*s)[i:], (*s)[i+1:])
	(*s)[len(*s)-1] = nil
	*s = (*s)[:len(*s)-1]
	return true
}

// memoSlots bounds the queue memo to a handful of instants. Live traffic
// asks about "now", so one slot is hot and the rest absorb stragglers
// (clients probing nearby instants, replayed tests).
const memoSlots = 8

// queueMemo is one memoized extraction at instant at: the cluster-wide
// pending/running sets, plus each user's past-day history once a snapshot
// asked for it. Every snapshot at that instant shares these slices
// read-only, so concurrent requests share one extraction and, because the
// runtime predictor keys its queue columns by the slices' identity, one
// column per partition.
type queueMemo struct {
	at               int64
	used             uint64 // LRU stamp
	pending, running []trace.Job
	hist             map[int][]trace.Job
}

// histEntry is one submission in the 24 h ring.
type histEntry struct {
	id     int
	user   int
	submit int64
}

// Engine is the event-sourced live cluster state. All methods are safe for
// concurrent use; snapshot extraction holds only a read lock (plus the
// queue memo's mutex).
type Engine struct {
	mu    sync.RWMutex
	jobs  map[int]*jobState
	parts map[string]*partState
	// users indexes job IDs per user in submission order — the source for
	// the past-day user-activity features.
	users map[int][]int
	// ring holds submissions in arrival order; head marks the oldest live
	// entry (pruned lazily as now advances past the retention window).
	ring []histEntry
	head int
	// endq orders running jobs by expected completion (Start + TimeLimit).
	endq   endHeap
	now    int64
	counts map[EventType]uint64
	errs   uint64
	// onStart, when set, observes applied start events (the online
	// accuracy tracker's join signal). Invoked outside the engine lock.
	onStart func(jobID int, eligible, start int64)
	// ver counts state mutations: every successfully applied event, bulk
	// seed, and checkpoint restore bumps it (see mutated). Two reads at the
	// same version observed identical engine state.
	ver uint64
	// memo holds queue extractions by instant. Readers fill it while they
	// hold e.mu for reading; every mutation, holding e.mu for writing,
	// drops it. So an entry always describes the current state. memoMu
	// orders the readers; the write lock already excludes them all.
	memoMu               sync.Mutex
	memo                 [memoSlots]*queueMemo
	memoClock            uint64
	memoHits, memoMisses uint64
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	e := &Engine{}
	e.reset()
	return e
}

func (e *Engine) reset() {
	e.jobs = make(map[int]*jobState)
	e.parts = make(map[string]*partState)
	e.users = make(map[int][]int)
	e.ring = nil
	e.head = 0
	e.endq = endHeap{}
	e.now = 0
	e.counts = make(map[EventType]uint64)
	e.errs = 0
}

func (e *Engine) part(name string) *partState {
	p := e.parts[name]
	if p == nil {
		p = &partState{}
		e.parts[name] = p
	}
	return p
}

// SetStartObserver registers fn to be called after every successfully
// applied start event with the job's ID, eligible time, and start time.
// The callback runs outside the engine lock, so it may call back into the
// engine; it must be fast (it sits on the event-ingest path). A nil fn
// clears the observer. Replace-style loads (SeedFromTrace, checkpoint
// restore) do not fire it — only live start events do.
func (e *Engine) SetStartObserver(fn func(jobID int, eligible, start int64)) {
	e.mu.Lock()
	e.onStart = fn
	e.mu.Unlock()
}

// ApplyEvent applies one event. Rejected events (duplicate, unknown job,
// stale ordering, invalid shape) return a typed error and leave state
// untouched; the stream is expected to continue.
func (e *Engine) ApplyEvent(ev Event) error {
	e.mu.Lock()
	err := e.apply(ev)
	var notify func()
	if err == nil && ev.Type == EventStart && e.onStart != nil {
		if js, ok := e.jobs[ev.ID()]; ok {
			fn := e.onStart
			id, eligible, start := js.job.ID, js.job.Eligible, js.job.Start
			notify = func() { fn(id, eligible, start) }
		}
	}
	e.mu.Unlock()
	if notify != nil {
		notify()
	}
	return err
}

func (e *Engine) apply(ev Event) error {
	if err := ev.Validate(); err != nil {
		e.errs++
		return err
	}
	id := ev.ID()
	var err error
	switch ev.Type {
	case EventSubmit:
		err = e.applySubmit(ev)
	case EventEligible:
		err = e.applyEligible(id, ev.Time)
	case EventStart:
		err = e.applyStart(id, ev.Time)
	case EventEnd:
		st := ev.State
		if st == "" {
			st = trace.StateCompleted
		}
		err = e.applyTerminal(id, ev.Time, st)
	case EventCancel:
		err = e.applyTerminal(id, ev.Time, trace.StateCancelled)
	}
	if err != nil {
		e.errs++
		return err
	}
	e.counts[ev.Type]++
	if ev.Time > e.now {
		e.now = ev.Time
		e.prune()
	}
	e.mutated()
	return nil
}

// mutated marks a state change: it moves the version and drops every
// memoized extraction. Callers hold e.mu for writing, which no reader
// filling the memo can hold at the same time.
func (e *Engine) mutated() {
	e.ver++
	e.memo = [memoSlots]*queueMemo{}
}

func (e *Engine) applySubmit(ev Event) error {
	j := *ev.Job
	if j.ID == 0 {
		j.ID = ev.JobID
	}
	if _, ok := e.jobs[j.ID]; ok {
		return fmt.Errorf("%w: submit for job %d", ErrDuplicate, j.ID)
	}
	j.Submit = ev.Time
	j.Eligible, j.Start, j.End = 0, 0, 0
	j.State = ""
	js := &jobState{job: j, phase: PhaseSubmitted}
	e.jobs[j.ID] = js
	// A submission already outside the retention window (a stale-timestamped
	// event behind the engine clock) can never appear in a served 24 h
	// history window, and prune pops from the ring head only — an expired
	// entry behind live ones would linger unboundedly. Track the job but
	// keep it out of the history index.
	if j.Submit >= e.now-historyRetention {
		e.addHistory(js)
	}
	return nil
}

func (e *Engine) applyEligible(id int, t int64) error {
	js, ok := e.jobs[id]
	if !ok {
		return fmt.Errorf("%w: eligible for job %d", ErrUnknownJob, id)
	}
	switch js.phase {
	case PhaseSubmitted:
	case PhasePending:
		return fmt.Errorf("%w: job %d already eligible", ErrDuplicate, id)
	default:
		return fmt.Errorf("%w: eligible for job %d in phase %d", ErrStale, id, js.phase)
	}
	js.job.Eligible = t
	js.phase = PhasePending
	e.part(js.job.Partition).pending.insert(js)
	return nil
}

func (e *Engine) applyStart(id int, t int64) error {
	js, ok := e.jobs[id]
	if !ok {
		return fmt.Errorf("%w: start for job %d", ErrUnknownJob, id)
	}
	switch js.phase {
	case PhasePending:
		e.part(js.job.Partition).pending.remove(id)
	case PhaseSubmitted:
		// Tolerate a stream that skipped the eligible event: starting
		// implies eligibility, at the latest now.
		js.job.Eligible = t
	default:
		return fmt.Errorf("%w: start for job %d in phase %d", ErrStale, id, js.phase)
	}
	js.job.Start = t
	js.phase = PhaseRunning
	e.part(js.job.Partition).running.insert(js)
	e.endq.push(id, expectedEnd(&js.job))
	return nil
}

func (e *Engine) applyTerminal(id int, t int64, st trace.JobState) error {
	js, ok := e.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s for job %d", ErrUnknownJob, st, id)
	}
	switch js.phase {
	case PhasePending:
		e.part(js.job.Partition).pending.remove(id)
	case PhaseRunning:
		e.part(js.job.Partition).running.remove(id)
		e.endq.remove(id)
	case PhaseSubmitted:
	default:
		return fmt.Errorf("%w: %s for job %d already terminal", ErrDuplicate, st, id)
	}
	js.job.End = t
	js.job.State = st
	js.phase = PhaseDone
	// History pruning is what normally deletes terminal jobs, keyed off the
	// ring entry made at submit time. A job whose submission has already
	// aged out has no live ring entry to trigger that, so drop it here —
	// nothing can read it again.
	if js.job.Submit < e.now-historyRetention {
		delete(e.jobs, id)
	}
	return nil
}

// addHistory records a submission in the ring and per-user index.
func (e *Engine) addHistory(js *jobState) {
	e.ring = append(e.ring, histEntry{id: js.job.ID, user: js.job.User, submit: js.job.Submit})
	e.users[js.job.User] = append(e.users[js.job.User], js.job.ID)
}

// prune drops submissions that aged out of the retention window, and with
// them any terminal job records that only history kept alive. Active jobs
// (pending/running) stay tracked regardless of age.
func (e *Engine) prune() {
	cutoff := e.now - historyRetention
	for e.head < len(e.ring) && e.ring[e.head].submit < cutoff {
		ent := e.ring[e.head]
		e.head++
		if ids := e.users[ent.user]; len(ids) > 0 {
			// Per-user IDs are appended in ring order, so the pruned entry
			// is at (or near, for mildly out-of-order streams) the front.
			if ids[0] == ent.id {
				ids = ids[1:]
			} else {
				for k, id := range ids {
					if id == ent.id {
						ids = append(ids[:k], ids[k+1:]...)
						break
					}
				}
			}
			if len(ids) == 0 {
				delete(e.users, ent.user)
			} else {
				e.users[ent.user] = ids
			}
		}
		if js, ok := e.jobs[ent.id]; ok && js.phase == PhaseDone {
			delete(e.jobs, ent.id)
		}
	}
	// Compact the ring once the dead prefix dominates.
	if e.head > 1024 && e.head*2 > len(e.ring) {
		e.ring = append([]histEntry(nil), e.ring[e.head:]...)
		e.head = 0
	}
}

// expectedEnd is the scheduler's view of when a running job must be done.
func expectedEnd(j *trace.Job) int64 { return j.Start + j.TimeLimit }

// SeedReport summarizes a bulk load.
type SeedReport struct {
	// Active is the number of pending/running/submitted jobs loaded.
	Active int
	// History is the number of terminal jobs kept for the 24 h window.
	History int
	// Dropped counts terminal jobs outside the window (not tracked).
	Dropped int
	// Now is the engine clock after the load (max timestamp seen).
	Now int64
}

// SeedFromTrace replaces the engine state with a bulk-loaded trace — the
// POST /state path. Jobs are classified by PhaseAt at the trace's newest
// timestamp: open-interval jobs become the live pending/running sets, and
// completed jobs inside the retention window seed the submission history.
func (e *Engine) SeedFromTrace(tr *trace.Trace) SeedReport {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.reset()
	var now int64
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		for _, t := range [4]int64{j.Submit, j.Eligible, j.Start, j.End} {
			if t > now {
				now = t
			}
		}
	}
	e.now = now
	var rep SeedReport
	rep.Now = now
	cutoff := now - historyRetention
	order := make([]int, 0, len(tr.Jobs))
	for i := range tr.Jobs {
		j := tr.Jobs[i]
		if j.ID == 0 || j.Submit <= 0 {
			continue
		}
		if _, ok := e.jobs[j.ID]; ok {
			continue
		}
		ph := PhaseAt(&j, now)
		if ph == PhaseNone {
			continue
		}
		if ph == PhaseDone && j.Submit < cutoff {
			rep.Dropped++
			continue
		}
		js := &jobState{job: j, phase: ph}
		e.jobs[j.ID] = js
		switch ph {
		case PhasePending:
			e.part(j.Partition).pending.insert(js)
			rep.Active++
		case PhaseRunning:
			e.part(j.Partition).running.insert(js)
			e.endq.push(j.ID, expectedEnd(&j))
			rep.Active++
		case PhaseSubmitted:
			rep.Active++
		default:
			rep.History++
		}
		if j.Submit >= cutoff {
			order = append(order, i)
		}
	}
	// The ring must be in submission order for pruning to work.
	sort.Slice(order, func(a, b int) bool {
		ja, jb := &tr.Jobs[order[a]], &tr.Jobs[order[b]]
		if ja.Submit != jb.Submit {
			return ja.Submit < jb.Submit
		}
		return ja.ID < jb.ID
	})
	for _, i := range order {
		if js, ok := e.jobs[tr.Jobs[i].ID]; ok {
			e.addHistory(js)
		}
	}
	e.counts["seed"] += uint64(rep.Active + rep.History)
	e.mutated()
	return rep
}

// CompletedJobs returns the realized-outcome records the engine retains:
// terminal jobs with a full lifecycle (Eligible and Start set, so the queue
// wait is realized; End at or past Start, so the runtime is too), sorted by
// eligibility then ID — the order of Build's rows. This is the
// continual-learning control plane's training-data source: every record's
// Start-Eligible is a ground-truth queue wait observed by the event stream,
// bounded by the engine's history-retention window.
func (e *Engine) CompletedJobs() []trace.Job {
	e.mu.RLock()
	out := make([]trace.Job, 0, len(e.jobs))
	for _, js := range e.jobs {
		j := js.job
		if js.phase == PhaseDone && j.Eligible > 0 && j.Start >= j.Eligible && j.End >= j.Start {
			out = append(out, j)
		}
	}
	e.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].Eligible != out[b].Eligible {
			return out[a].Eligible < out[b].Eligible
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Now returns the engine clock (the newest event time applied).
func (e *Engine) Now() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.now
}

// Ready reports whether the engine can answer a prediction at instant at —
// at is not so far behind the clock that pruned history would make the
// answer wrong — and returns the clock it judged against. Instants at or
// beyond the clock are always fine (the live-prediction case), and an empty
// engine answers with an empty queue.
func (e *Engine) Ready(at int64) (now int64, ok bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.now, at >= e.now-3600
}

// SnapshotAt extracts a features.Snapshot for a target job against the
// current indexed state: SnapshotBatch of one.
func (e *Engine) SnapshotAt(target trace.Job, at int64) *features.Snapshot {
	return e.SnapshotBatch([]trace.Job{target}, at)[0]
}

// pendingRunningLocked reads the cluster-wide pending/running sets at an
// instant off the sorted partition indexes. Callers hold e.mu.
func (e *Engine) pendingRunningLocked(at int64) (pending, running []trace.Job) {
	// Nearly every indexed job is live at a current instant, so the index
	// lengths size both results once instead of re-copying 152-byte
	// records through append's doublings.
	var np, nr int
	names := make([]string, 0, len(e.parts))
	for nm, p := range e.parts {
		names = append(names, nm)
		np += len(p.pending)
		nr += len(p.running)
	}
	sort.Strings(names)
	if np > 0 {
		pending = make([]trace.Job, 0, np)
	}
	if nr > 0 {
		running = make([]trace.Job, 0, nr)
	}
	for _, nm := range names {
		p := e.parts[nm]
		for _, js := range p.pending {
			if js.job.Eligible <= at {
				pending = append(pending, js.job)
			}
		}
		for _, js := range p.running {
			if js.job.Start <= at {
				running = append(running, js.job)
			}
		}
	}
	return pending, running
}

// userHistoryLocked reads one user's past-day submissions from the history
// index, ID-sorted: each job is looked up once, and its 152-byte record
// copied once, into a result of the exact size. Callers hold e.mu.
func (e *Engine) userHistoryLocked(user int, at int64) []trace.Job {
	ids := e.users[user]
	hist := make([]*jobState, 0, len(ids))
	for _, id := range ids {
		js, ok := e.jobs[id]
		if !ok {
			continue
		}
		if s := js.job.Submit; s >= at-86400 && s < at {
			hist = append(hist, js)
		}
	}
	if len(hist) == 0 {
		return nil
	}
	slices.SortFunc(hist, func(a, b *jobState) int { return cmp.Compare(a.job.ID, b.job.ID) })
	out := make([]trace.Job, len(hist))
	for i, js := range hist {
		out[i] = js.job
	}
	return out
}

// queueAt returns the memoized extraction at instant at, extracting it into
// the oldest-used slot on a miss. Callers hold e.mu for reading and
// e.memoMu, so concurrent misses at one instant extract once.
func (e *Engine) queueAt(at int64) *queueMemo {
	e.memoClock++
	victim := 0
	for i, m := range e.memo {
		if m == nil {
			victim = i
			continue
		}
		if m.at == at {
			m.used = e.memoClock
			e.memoHits++
			return m
		}
		if e.memo[victim] != nil && m.used < e.memo[victim].used {
			victim = i
		}
	}
	e.memoMisses++
	m := &queueMemo{at: at, used: e.memoClock, hist: make(map[int][]trace.Job)}
	m.pending, m.running = e.pendingRunningLocked(at)
	e.memo[victim] = m
	return m
}

// SnapshotBatch extracts one snapshot per target, all at the same instant,
// under a single read lock: the cluster-wide pending/running sets (every
// partition is included so snapshot consumers see cluster-wide queue depth)
// and each distinct user's history come from the queue memo, extracted
// there once per instant and state, O(log n + k) in the active-set size and
// never O(trace). Snapshots share the memo's slices; callers treat them as
// read-only. The snapshots are allocated in one block, before the locks,
// so concurrent batches do not wait on each other's allocations.
func (e *Engine) SnapshotBatch(targets []trace.Job, at int64) []*features.Snapshot {
	block := make([]features.Snapshot, len(targets))
	e.SnapshotBatchInto(block, targets, at)
	snaps := make([]*features.Snapshot, len(block))
	for i := range block {
		snaps[i] = &block[i]
	}
	return snaps
}

// SnapshotBatchInto is SnapshotBatch writing target i's snapshot into
// block[i]; block must hold len(targets) snapshots, and its old contents
// are overwritten whole. It allocates only when the memo misses.
func (e *Engine) SnapshotBatchInto(block []features.Snapshot, targets []trace.Job, at int64) {
	e.mu.RLock()
	e.memoMu.Lock()
	m := e.queueAt(at)
	for i := range targets {
		target := &targets[i]
		hist, ok := m.hist[target.User]
		if !ok {
			hist = e.userHistoryLocked(target.User, at)
			m.hist[target.User] = hist
		}
		block[i] = features.Snapshot{
			Now: at, Target: *target,
			Pending: m.pending, Running: m.running, History: hist,
		}
	}
	e.memoMu.Unlock()
	e.mu.RUnlock()
}

// SnapshotForJob extracts a snapshot for a tracked pending job at the
// engine clock, or at its eligibility instant if that is later. Jobs the
// engine does not track — or that already started — have no queue wait
// left to predict, so they return an error.
func (e *Engine) SnapshotForJob(id int) (*features.Snapshot, error) {
	e.mu.RLock()
	js, ok := e.jobs[id]
	ok = ok && js.phase == PhasePending
	var target trace.Job
	if ok {
		target = js.job
	}
	now := max(e.now, target.Eligible)
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("livestate: job %d is not a tracked pending job", id)
	}
	return e.SnapshotAt(target, now), nil
}

// PendingRunning extracts the cluster-wide pending/running sets at an
// instant, bypassing the queue memo, together with the engine version those
// sets correspond to (read under the same lock, so the pair is consistent).
// With UserHistoryChecked it is a memo miss taken apart, so each half can be
// timed on its own; callers treat the slices as read-only.
func (e *Engine) PendingRunning(at int64) (pending, running []trace.Job, ver uint64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	pending, running = e.pendingRunningLocked(at)
	return pending, running, e.ver
}

// UserHistoryChecked extracts one user's past-day submission history at an
// instant, but only if the engine is still at version wantVer — the caller
// holds pending/running sets read at that version and must not pair them
// with history from a newer state. ok=false means the engine moved on.
func (e *Engine) UserHistoryChecked(user int, at int64, wantVer uint64) (hist []trace.Job, ok bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.ver != wantVer {
		return nil, false
	}
	return e.userHistoryLocked(user, at), true
}

// PartCounts is one partition's live queue depth.
type PartCounts struct {
	Pending int
	Running int
}

// Stats is a point-in-time summary of the engine, the source for the
// /metrics livestate gauges.
type Stats struct {
	Now            int64
	Tracked        int
	Pending        int
	Running        int
	Submitted      int
	HistoryEntries int
	Partitions     map[string]PartCounts
	// Events counts applied events by type ("seed" counts bulk-loaded
	// records); ApplyErrors counts rejected events.
	Events      map[string]uint64
	ApplyErrors uint64
	// NextExpectedEnd is the soonest Start+TimeLimit over running jobs
	// (0 when nothing runs) — the heap index's peek.
	NextExpectedEnd int64
	// SnapshotHits and SnapshotMisses count SnapshotBatch calls answered
	// from the queue memo and calls that extracted the queue afresh.
	SnapshotHits, SnapshotMisses uint64
}

// Stats snapshots the engine's counters and index sizes.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := Stats{
		Now:            e.now,
		Tracked:        len(e.jobs),
		HistoryEntries: len(e.ring) - e.head,
		Partitions:     make(map[string]PartCounts, len(e.parts)),
		Events:         make(map[string]uint64, len(e.counts)),
		ApplyErrors:    e.errs,
	}
	for nm, p := range e.parts {
		pc := PartCounts{Pending: len(p.pending), Running: len(p.running)}
		if pc.Pending == 0 && pc.Running == 0 {
			continue
		}
		st.Partitions[nm] = pc
		st.Pending += pc.Pending
		st.Running += pc.Running
	}
	for _, js := range e.jobs {
		if js.phase == PhaseSubmitted {
			st.Submitted++
		}
	}
	for ty, n := range e.counts {
		st.Events[string(ty)] = n
	}
	if _, end, ok := e.endq.peek(); ok {
		st.NextExpectedEnd = end
	}
	e.memoMu.Lock()
	st.SnapshotHits, st.SnapshotMisses = e.memoHits, e.memoMisses
	e.memoMu.Unlock()
	return st
}

// dto is the gob wire form of the engine: the tracked job records, the
// live submission ring, and counters. The ring is serialized verbatim —
// recomputing membership from job records would diverge from live state
// whenever the stream's timestamps trail the engine clock — so a restored
// engine is a faithful copy, not a re-derivation. Index structures
// (partition sets, end-heap, per-user lists) are rebuilt on load.
type dto struct {
	Jobs   []dtoJob
	Ring   []dtoHist
	Now    int64
	Counts map[string]uint64
	Errs   uint64
}

type dtoJob struct {
	Job   trace.Job
	Phase uint8
}

type dtoHist struct {
	ID     int
	User   int
	Submit int64
}

// snapshotDTO captures the engine for a checkpoint.
func (e *Engine) snapshotDTO() dto {
	e.mu.RLock()
	defer e.mu.RUnlock()
	d := dto{Now: e.now, Errs: e.errs, Counts: make(map[string]uint64, len(e.counts))}
	for ty, n := range e.counts {
		d.Counts[string(ty)] = n
	}
	d.Jobs = make([]dtoJob, 0, len(e.jobs))
	ids := make([]int, 0, len(e.jobs))
	for id := range e.jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		js := e.jobs[id]
		d.Jobs = append(d.Jobs, dtoJob{Job: js.job, Phase: uint8(js.phase)})
	}
	live := e.ring[e.head:]
	d.Ring = make([]dtoHist, 0, len(live))
	for _, h := range live {
		d.Ring = append(d.Ring, dtoHist{ID: h.id, User: h.user, Submit: h.submit})
	}
	return d
}

// restoreDTO replaces engine state from a checkpoint, rebuilding every
// index from the job records.
func (e *Engine) restoreDTO(d dto) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.reset()
	e.now = d.Now
	e.errs = d.Errs
	for ty, n := range d.Counts {
		e.counts[EventType(ty)] = n
	}
	for i := range d.Jobs {
		j := d.Jobs[i].Job
		js := &jobState{job: j, phase: Phase(d.Jobs[i].Phase)}
		e.jobs[j.ID] = js
		switch js.phase {
		case PhasePending:
			e.part(j.Partition).pending.insert(js)
		case PhaseRunning:
			e.part(j.Partition).running.insert(js)
			e.endq.push(j.ID, expectedEnd(&j))
		}
	}
	// The ring (and the per-user index it implies) is restored verbatim:
	// it must match what the live engine held at checkpoint time, entry for
	// entry, or recovered snapshots drift from pre-crash ones.
	e.ring = make([]histEntry, 0, len(d.Ring))
	for _, h := range d.Ring {
		e.ring = append(e.ring, histEntry{id: h.ID, user: h.User, submit: h.Submit})
		e.users[h.User] = append(e.users[h.User], h.ID)
	}
	e.mutated()
}

// endHeap is an indexed min-heap of running jobs keyed by expected end,
// supporting O(log n) removal by job ID when end events arrive out of
// expected order — the running-set index the drain-time gauge reads.
type endHeap struct {
	items []endItem
	pos   map[int]int
}

type endItem struct {
	id  int
	end int64
}

func (h *endHeap) push(id int, end int64) {
	if h.pos == nil {
		h.pos = make(map[int]int)
	}
	if _, ok := h.pos[id]; ok {
		h.remove(id)
	}
	h.items = append(h.items, endItem{id: id, end: end})
	h.pos[id] = len(h.items) - 1
	h.up(len(h.items) - 1)
}

func (h *endHeap) peek() (id int, end int64, ok bool) {
	if len(h.items) == 0 {
		return 0, 0, false
	}
	return h.items[0].id, h.items[0].end, true
}

func (h *endHeap) remove(id int) bool {
	i, ok := h.pos[id]
	if !ok {
		return false
	}
	last := len(h.items) - 1
	h.swap(i, last)
	h.items = h.items[:last]
	delete(h.pos, id)
	if i < last {
		h.down(i)
		h.up(i)
	}
	return true
}

func (h *endHeap) less(a, b int) bool {
	if h.items[a].end != h.items[b].end {
		return h.items[a].end < h.items[b].end
	}
	return h.items[a].id < h.items[b].id
}

func (h *endHeap) swap(a, b int) {
	h.items[a], h.items[b] = h.items[b], h.items[a]
	h.pos[h.items[a].id] = a
	h.pos[h.items[b].id] = b
}

func (h *endHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *endHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}
