package slurmsim

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/trace"
)

// JobSpec is a job submitted to the simulator. Runtime is the job's true
// wall time (unknown to the scheduler, which sees only TimeLimit).
type JobSpec struct {
	ID            int
	User          int
	Partition     string
	Submit        int64
	EligibleDelay int64 // seconds after submit before the job may start
	ReqCPUs       int
	ReqMemGB      float64
	ReqNodes      int
	ReqGPUs       int
	TimeLimit     int64
	Runtime       int64
	QOS           int
	Interactive   bool
	// DependsOn holds the ID of a job that must complete before this one
	// becomes eligible (Slurm --dependency=afterany). Must reference an
	// earlier job ID; 0 means no dependency. This is one of the reasons
	// the paper keys features off *eligibility* rather than submit time.
	DependsOn int
}

// Config configures a simulation run.
type Config struct {
	Cluster ClusterSpec
	Weights PriorityWeights
	// FairshareHalfLife is the usage decay half-life in seconds.
	FairshareHalfLife int64
	// BackfillDepth bounds how many pending jobs past the blocked one each
	// scheduling pass considers (Slurm's bf_max_job_test). 0 means 100.
	BackfillDepth int
	// PriorityRefresh is how often (sim seconds) the pending queue is
	// re-sorted purely because age factors drifted. 0 means 300.
	PriorityRefresh int64
	// DisablePreemption turns off partition-priority preemption (jobs in
	// Preemptible partitions being requeued by higher-tier jobs).
	DisablePreemption bool
	// DisableBackfill turns off EASY backfill: once the top pending job
	// is blocked, nothing behind it may start (strict priority order).
	DisableBackfill bool
}

// DefaultConfig returns a config with an Anvil-like cluster at the given
// scale and fair-share-dominant weights.
func DefaultConfig(scale int) Config {
	return Config{
		Cluster:           AnvilLike(scale),
		Weights:           DefaultPriorityWeights(),
		FairshareHalfLife: 7 * 24 * 3600,
		BackfillDepth:     100,
		PriorityRefresh:   300,
	}
}

// Stats summarizes a simulation run.
type Stats struct {
	Completed      int
	Rejected       int // jobs whose request exceeds partition capacity
	Events         int
	SchedulePasses int
	BackfillStarts int
	MaxPending     int
	Preemptions    int // requeue preemptions of lower-tier jobs
	// BusyCPUSeconds integrates requested CPUs over run time; with
	// FirstEvent/LastEvent it yields the realized utilization.
	BusyCPUSeconds float64
	FirstEvent     int64
	LastEvent      int64
}

// UtilizationCPU returns realized CPU utilization: busy CPU-seconds over
// capacity × simulated span. Returns 0 when the span is empty.
func (s Stats) UtilizationCPU(totalCPUs int) float64 {
	span := float64(s.LastEvent - s.FirstEvent)
	if span <= 0 || totalCPUs <= 0 {
		return 0
	}
	return s.BusyCPUSeconds / (span * float64(totalCPUs))
}

// share is one node's slice of a job's request.
type share struct {
	cpus  int
	memGB float64
	gpus  int
}

// alloc records the nodes a running job occupies and the per-node slice.
type alloc struct {
	nodeIDs []int
	share
	exclusive bool
}

// simJob is a job's scheduling state.
type simJob struct {
	spec       JobSpec
	part       *PartitionSpec
	ask        share // per node
	eligible   int64
	start      int64
	end        int64 // while running, its key in Simulator.running
	alloc      alloc
	priority   float64 // live priority, refreshed each sort
	initPrio   int64   // priority at eligibility — recorded in the trace
	backfilled bool
	// runEpoch invalidates stale end events after a requeue preemption.
	runEpoch  int
	preempted int // times this job was requeued
}

// event kinds.
const (
	evEligible = iota
	evEnd
)

type event struct {
	at    int64
	kind  int
	job   *simJob
	seq   int
	epoch int // for evEnd: the job run this event belongs to
}

// eventHeap is a binary min-heap of events. It orders them by (at, kind,
// seq); step applies an instant's ends before its eligibles whatever that
// order.
type eventHeap []event

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	e := *h
	for i := len(e) - 1; i > 0; {
		p := (i - 1) / 2
		if !e[i].before(&e[p]) {
			break
		}
		e[i], e[p] = e[p], e[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	e := *h
	ev := e[0]
	n := len(e) - 1
	e[0] = e[n]
	e[n] = event{}
	e = e[:n]
	*h = e
	for i := 0; ; {
		small := i
		if l := 2*i + 1; l < n && e[l].before(&e[small]) {
			small = l
		}
		if r := 2*i + 2; r < n && e[r].before(&e[small]) {
			small = r
		}
		if small == i {
			return ev
		}
		e[i], e[small] = e[small], e[i]
		i = small
	}
}

// nodeState tracks a node's free capacity.
type nodeState struct {
	freeCPUs  int
	freeMemGB float64
	freeGPUs  int
	busyJobs  int
}

// Simulator runs jobs through the scheduler.
type Simulator struct {
	cfg   Config
	nodes []nodeState
	// running holds the running jobs ordered by (end, ID), the order
	// computeShadow releases them in.
	running   []*simJob
	pending   []*simJob
	events    eventHeap
	batch     []event // the instant step is applying
	seq       int
	fs        *fairshare
	nUsers    int
	totalCPUs int
	maxTier   int
	stats     Stats
	lastSort  int64
	dirty     bool
	requeued  []*simJob         // preemption victims awaiting re-queue this pass
	waiting   map[int][]*simJob // dependents keyed by the job they wait for
	out       []trace.Job

	// Fair-share factors by user, valid for one instant until the next
	// Charge.
	factors  map[int]float64
	factorAt int64

	// Reused buffers of the placement probes.
	scratch  []nodeState // node state with hypothetical releases applied
	partUses []int       // per node: times the probed job's partition lists it
	fitting  []bool      // per node: the probed job fits there on scratch
	reserved []bool      // nodes the blocked job's reservation holds
	picked   []int       // tryAlloc's answer
	victims  []*simJob
}

// New builds a simulator for the config.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if cfg.BackfillDepth <= 0 {
		cfg.BackfillDepth = 100
	}
	if cfg.PriorityRefresh <= 0 {
		cfg.PriorityRefresh = 300
	}
	if cfg.FairshareHalfLife <= 0 {
		cfg.FairshareHalfLife = 7 * 24 * 3600
	}
	n := len(cfg.Cluster.Nodes)
	s := &Simulator{
		cfg:      cfg,
		waiting:  map[int][]*simJob{},
		fs:       newFairshare(cfg.FairshareHalfLife),
		factors:  map[int]float64{},
		scratch:  make([]nodeState, n),
		partUses: make([]int, n),
		fitting:  make([]bool, n),
		reserved: make([]bool, n),
	}
	for _, n := range cfg.Cluster.Nodes {
		s.nodes = append(s.nodes, nodeState{freeCPUs: n.CPUs, freeMemGB: n.MemGB, freeGPUs: n.GPUs})
		s.totalCPUs += n.CPUs
	}
	for _, p := range cfg.Cluster.Partitions {
		if p.Tier > s.maxTier {
			s.maxTier = p.Tier
		}
	}
	if s.maxTier == 0 {
		s.maxTier = 1
	}
	return s, nil
}

// Run simulates the given jobs and returns the completed-job trace. The
// event loop drains fully: arrivals stop when specs run out, then the queue
// empties.
func Run(cfg Config, specs []JobSpec) (*trace.Trace, Stats, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	if err := s.admit(specs); err != nil {
		return nil, s.stats, err
	}
	if len(s.events) > 0 {
		s.stats.FirstEvent = s.events[0].at
	}
	for s.step() {
	}
	tr := &trace.Trace{Jobs: s.out}
	tr.SortByEligible()
	return tr, s.stats, nil
}

// admit checks the specs and queues each accepted job's eligibility, or
// parks it behind the job it depends on.
func (s *Simulator) admit(specs []JobSpec) error {
	users := map[int]bool{}
	for i := range specs {
		users[specs[i].User] = true
	}
	s.nUsers = len(users)
	s.out = make([]trace.Job, 0, len(specs))

	accepted := map[int]bool{}
	for i := range specs {
		sp := specs[i]
		part := s.cfg.Cluster.Partition(sp.Partition)
		if part == nil {
			return fmt.Errorf("slurmsim: job %d targets unknown partition %q", sp.ID, sp.Partition)
		}
		if sp.DependsOn != 0 && sp.DependsOn >= sp.ID {
			return fmt.Errorf("slurmsim: job %d depends on %d (must be an earlier job)", sp.ID, sp.DependsOn)
		}
		if err := s.checkFeasible(sp, part); err != nil {
			s.stats.Rejected++
			continue
		}
		if sp.DependsOn != 0 && !accepted[sp.DependsOn] {
			// Slurm holds jobs whose dependency can never be satisfied;
			// accounting-wise they end up cancelled.
			s.stats.Rejected++
			continue
		}
		accepted[sp.ID] = true
		j := newJob(sp, part, sp.Submit+sp.EligibleDelay)
		if sp.DependsOn != 0 {
			s.waiting[sp.DependsOn] = append(s.waiting[sp.DependsOn], j)
			continue
		}
		s.push(event{at: j.eligible, kind: evEligible, job: j})
	}
	return nil
}

// step advances the simulation by one instant: it pops every event due at
// the earliest time, applies the ends, then the eligibles, then runs one
// scheduling pass. Events the instant itself creates for the same time (a
// released dependent, a zero-length run) wait for the next step. It
// returns false once no events remain.
func (s *Simulator) step() bool {
	if len(s.events) == 0 {
		return false
	}
	now := s.events[0].at
	s.stats.LastEvent = now
	s.batch = s.batch[:0]
	for len(s.events) > 0 && s.events[0].at == now {
		s.batch = append(s.batch, s.events.pop())
	}
	for _, ev := range s.batch {
		// A stale end event (the job was preempted and requeued since
		// it was scheduled) is a no-op.
		if ev.kind == evEnd && ev.epoch == ev.job.runEpoch {
			s.finish(ev.job, now)
		}
	}
	for _, ev := range s.batch {
		if ev.kind == evEligible {
			s.stats.Events++
			s.pending = append(s.pending, ev.job)
			ev.job.initPrio = int64(s.jobPriority(ev.job, now))
			s.dirty = true
		}
	}
	s.schedule(now)
	return true
}

func (s *Simulator) push(ev event) {
	ev.seq = s.seq
	s.seq++
	s.events.push(ev)
}

// checkFeasible rejects jobs that could never run on their partition.
func (s *Simulator) checkFeasible(sp JobSpec, part *PartitionSpec) error {
	if sp.ReqNodes <= 0 || sp.ReqCPUs <= 0 || sp.ReqMemGB <= 0 || sp.TimeLimit <= 0 || sp.Runtime < 0 {
		return fmt.Errorf("invalid request")
	}
	if part.MaxTime > 0 && sp.TimeLimit > part.MaxTime {
		return fmt.Errorf("time limit exceeds partition max")
	}
	if sp.ReqNodes > len(part.NodeIDs) {
		return fmt.Errorf("more nodes than partition has")
	}
	ask := perNodeAsk(sp)
	fits := 0
	for _, id := range part.NodeIDs {
		n := s.cfg.Cluster.Nodes[id]
		if n.CPUs >= ask.cpus && n.MemGB >= ask.memGB && n.GPUs >= ask.gpus {
			fits++
		}
	}
	if fits < sp.ReqNodes {
		return fmt.Errorf("per-node request exceeds node capacity")
	}
	return nil
}

// perNodeAsk converts a job's aggregate request into a per-node slice.
func perNodeAsk(sp JobSpec) share {
	return share{
		cpus:  (sp.ReqCPUs + sp.ReqNodes - 1) / sp.ReqNodes,
		memGB: sp.ReqMemGB / float64(sp.ReqNodes),
		gpus:  (sp.ReqGPUs + sp.ReqNodes - 1) / sp.ReqNodes,
	}
}

func newJob(sp JobSpec, part *PartitionSpec, eligible int64) *simJob {
	return &simJob{spec: sp, part: part, ask: perNodeAsk(sp), eligible: eligible}
}

// release returns a's share of node id to the node state n.
func (s *Simulator) release(n *nodeState, id int, a *alloc) {
	if a.exclusive {
		spec := s.cfg.Cluster.Nodes[id]
		n.freeCPUs = spec.CPUs
		n.freeMemGB = spec.MemGB
		n.freeGPUs = spec.GPUs
	} else {
		n.freeCPUs += a.cpus
		n.freeMemGB += a.memGB
		n.freeGPUs += a.gpus
	}
	n.busyJobs--
}

// finish releases a completed job and charges fair-share usage.
func (s *Simulator) finish(j *simJob, now int64) {
	s.stats.Events++
	for _, id := range j.alloc.nodeIDs {
		s.release(&s.nodes[id], id, &j.alloc)
	}
	s.removeRunning(j)
	s.stats.BusyCPUSeconds += float64(j.spec.ReqCPUs) * float64(now-j.start)
	s.fs.Charge(j.spec.User, float64(j.spec.ReqCPUs)*float64(now-j.start), now)
	clear(s.factors)
	s.dirty = true

	state := trace.StateCompleted
	if j.spec.Runtime >= j.spec.TimeLimit {
		state = trace.StateTimeout
	}
	s.out = append(s.out, trace.Job{
		ID: j.spec.ID, User: j.spec.User, Partition: j.spec.Partition, State: state,
		Submit: j.spec.Submit, Eligible: j.eligible, Start: j.start, End: now,
		ReqCPUs: j.spec.ReqCPUs, ReqMemGB: j.spec.ReqMemGB, ReqNodes: j.spec.ReqNodes,
		ReqGPUs: j.spec.ReqGPUs, TimeLimit: j.spec.TimeLimit,
		Priority: j.initPrio, QOS: j.spec.QOS, Interactive: j.spec.Interactive,
		DependsOn: j.spec.DependsOn,
	})
	s.stats.Completed++

	// Release dependents: they become eligible now (or at their own
	// submit+delay, whichever is later).
	for _, w := range s.waiting[j.spec.ID] {
		el := w.spec.Submit + w.spec.EligibleDelay
		if now > el {
			el = now
		}
		w.eligible = el
		s.push(event{at: el, kind: evEligible, job: w})
	}
	delete(s.waiting, j.spec.ID)
}

// fitsOn reports whether node id, in state n, can take one per-node slice
// of j.
func (s *Simulator) fitsOn(n *nodeState, id int, j *simJob) bool {
	if j.part.Exclusive && (n.busyJobs > 0 || n.freeCPUs != s.cfg.Cluster.Nodes[id].CPUs) {
		return false
	}
	return n.freeCPUs >= j.ask.cpus && n.freeMemGB >= j.ask.memGB && n.freeGPUs >= j.ask.gpus
}

// tryAlloc attempts a first-fit allocation for j on its partition using the
// given node states. It returns the chosen node IDs, valid until the next
// call, or nil.
func (s *Simulator) tryAlloc(nodes []nodeState, j *simJob) []int {
	s.picked = s.picked[:0]
	for _, id := range j.part.NodeIDs {
		if s.fitsOn(&nodes[id], id, j) {
			s.picked = append(s.picked, id)
			if len(s.picked) == j.spec.ReqNodes {
				return s.picked
			}
		}
	}
	return nil
}

// releaseUntilFit applies the releases of order, in order, to a scratch
// copy of the node state until j fits there. It returns how many releases
// that took (0: j fits already) and leaves s.scratch in that state, or -1
// when j never fits. Only the nodes a release touches are probed again,
// so a release that frees none of j's partition costs its node count.
func (s *Simulator) releaseUntilFit(j *simJob, order []*simJob) int {
	copy(s.scratch, s.nodes)
	clear(s.partUses)
	for _, id := range j.part.NodeIDs {
		s.partUses[id]++
	}
	// fit counts j's partition entries whose node fits, as tryAlloc does.
	fit := 0
	for id, uses := range s.partUses {
		s.fitting[id] = uses > 0 && s.fitsOn(&s.scratch[id], id, j)
		if s.fitting[id] {
			fit += uses
		}
	}
	if fit >= j.spec.ReqNodes {
		return 0
	}
	for k, r := range order {
		for _, id := range r.alloc.nodeIDs {
			n := &s.scratch[id]
			s.release(n, id, &r.alloc)
			if s.partUses[id] == 0 {
				continue
			}
			if now := s.fitsOn(n, id, j); now != s.fitting[id] {
				s.fitting[id] = now
				if now {
					fit += s.partUses[id]
				} else {
					fit -= s.partUses[id]
				}
			}
		}
		if fit >= j.spec.ReqNodes {
			return k + 1
		}
	}
	return -1
}

// startJob commits an allocation and schedules the job's end at its
// runtime, cut at its time limit.
func (s *Simulator) startJob(j *simJob, nodeIDs []int, now int64) {
	run := j.spec.Runtime
	if run > j.spec.TimeLimit {
		run = j.spec.TimeLimit // the scheduler kills jobs at their limit
	}
	s.runJob(j, nodeIDs, now, now+run)
}

// runJob commits an allocation over [start, end), enters the job into the
// running set and schedules its end event.
func (s *Simulator) runJob(j *simJob, nodeIDs []int, start, end int64) {
	j.alloc = alloc{nodeIDs: slices.Clone(nodeIDs), share: j.ask, exclusive: j.part.Exclusive}
	for _, id := range nodeIDs {
		n := &s.nodes[id]
		if j.part.Exclusive {
			n.freeCPUs = 0
			n.freeMemGB = 0
			n.freeGPUs = 0
		} else {
			n.freeCPUs -= j.ask.cpus
			n.freeMemGB -= j.ask.memGB
			n.freeGPUs -= j.ask.gpus
		}
		n.busyJobs++
	}
	j.start = start
	j.end = end
	i, _ := slices.BinarySearchFunc(s.running, j, byEnd)
	s.running = slices.Insert(s.running, i, j)
	s.push(event{at: j.end, kind: evEnd, job: j, epoch: j.runEpoch})
}

// byEnd is the running set's order.
func byEnd(a, b *simJob) int {
	if c := cmp.Compare(a.end, b.end); c != 0 {
		return c
	}
	return cmp.Compare(a.spec.ID, b.spec.ID)
}

// runningIndex returns j's index in the running set, or -1.
func (s *Simulator) runningIndex(j *simJob) int {
	i, _ := slices.BinarySearchFunc(s.running, j, byEnd)
	for ; i < len(s.running) && byEnd(s.running[i], j) == 0; i++ {
		if s.running[i] == j {
			return i
		}
	}
	return -1
}

func (s *Simulator) removeRunning(j *simJob) {
	if i := s.runningIndex(j); i >= 0 {
		s.running = slices.Delete(s.running, i, i+1)
	}
}

// releaseAlloc returns a running job's resources to the cluster without
// recording completion (the requeue half of a preemption).
func (s *Simulator) releaseAlloc(j *simJob) {
	for _, id := range j.alloc.nodeIDs {
		s.release(&s.nodes[id], id, &j.alloc)
	}
	s.removeRunning(j)
	j.alloc = alloc{}
}

// chargePartialRun records the CPU time a preemption victim consumed before
// being requeued (accounted for utilization but not fair share, mirroring
// sites that do not charge users for preempted work).
func (s *Simulator) chargePartialRun(j *simJob, now int64) {
	s.stats.BusyCPUSeconds += float64(j.spec.ReqCPUs) * float64(now-j.start)
}

// tryPreempt attempts to start j by requeueing running jobs from
// lower-tier Preemptible partitions (Slurm partition_prio preemption).
// Only the highest-priority blocked job may preempt, and victims are chosen
// newest-start-first to minimize lost work. Returns true if j was started.
func (s *Simulator) tryPreempt(j *simJob, now int64) bool {
	if s.cfg.DisablePreemption {
		return false
	}
	victims := s.victims[:0]
	for _, r := range s.running {
		if r.part.Preemptible && r.part.Tier < j.part.Tier {
			victims = append(victims, r)
		}
	}
	s.victims = victims
	if len(victims) == 0 {
		return false
	}
	slices.SortFunc(victims, func(a, b *simJob) int {
		if c := cmp.Compare(b.start, a.start); c != 0 {
			return c // newest first
		}
		return cmp.Compare(b.spec.ID, a.spec.ID)
	})
	needed := s.releaseUntilFit(j, victims)
	if needed < 0 {
		return false
	}
	// Commit: requeue the victims, then start j for real. Victims are
	// parked on s.requeued because schedule() is compacting s.pending in
	// place around this call; it re-queues them after the pass.
	for _, v := range victims[:needed] {
		s.chargePartialRun(v, now)
		s.releaseAlloc(v)
		v.runEpoch++
		v.preempted++
		s.requeued = append(s.requeued, v)
		s.stats.Preemptions++
	}
	ids := s.tryAlloc(s.nodes, j)
	if ids == nil {
		// Should not happen: scratch said it fits.
		return false
	}
	s.startJob(j, ids, now)
	return true
}

// byEvaluation is Slurm's evaluation order: partition tier, priority,
// submit, ID.
func byEvaluation(a, b *simJob) int {
	if a.part.Tier != b.part.Tier {
		return cmp.Compare(b.part.Tier, a.part.Tier)
	}
	if a.priority != b.priority {
		if a.priority > b.priority {
			return -1
		}
		return 1
	}
	if a.spec.Submit != b.spec.Submit {
		return cmp.Compare(a.spec.Submit, b.spec.Submit)
	}
	return cmp.Compare(a.spec.ID, b.spec.ID)
}

// schedule runs one scheduling pass: start pending jobs in priority order,
// compute an EASY-backfill reservation for the first blocked job, and let
// later jobs backfill if they cannot delay it.
func (s *Simulator) schedule(now int64) {
	if len(s.pending) == 0 {
		return
	}
	s.stats.SchedulePasses++
	if len(s.pending) > s.stats.MaxPending {
		s.stats.MaxPending = len(s.pending)
	}
	if s.dirty || now-s.lastSort >= s.cfg.PriorityRefresh {
		for _, j := range s.pending {
			j.priority = s.jobPriority(j, now)
		}
		slices.SortFunc(s.pending, byEvaluation)
		s.lastSort = now
		s.dirty = false
	}

	var (
		reserved   bool
		shadowTime int64
		tested     int
	)
	remaining := s.pending[:0]
	for qi, j := range s.pending {
		if reserved && (s.cfg.DisableBackfill || tested >= s.cfg.BackfillDepth) {
			remaining = append(remaining, s.pending[qi:]...)
			break
		}
		nodeIDs := s.tryAlloc(s.nodes, j)
		if nodeIDs != nil && reserved {
			// Backfill test: must finish before the shadow time or
			// avoid the reserved nodes entirely.
			tested++
			ok := now+j.spec.TimeLimit <= shadowTime
			if !ok {
				ok = true
				for _, id := range nodeIDs {
					if s.reserved[id] {
						ok = false
						break
					}
				}
			}
			if !ok {
				remaining = append(remaining, j)
				continue
			}
			j.backfilled = true
			s.stats.BackfillStarts++
		}
		if nodeIDs != nil {
			s.startJob(j, nodeIDs, now)
			s.dirty = true
			continue
		}
		if !reserved {
			// The top blocked job may preempt lower-tier preemptible
			// jobs before settling for a reservation.
			if s.tryPreempt(j, now) {
				s.dirty = true
				continue
			}
			reserved = true
			shadowTime = s.computeShadow(j, now)
		} else {
			tested++
		}
		remaining = append(remaining, j)
	}
	// Zero the tail so released jobs do not leak via the shared array.
	clear(s.pending[len(remaining):])
	s.pending = remaining
	if len(s.requeued) > 0 {
		s.pending = append(s.pending, s.requeued...)
		s.requeued = s.requeued[:0]
		s.dirty = true
	}
}

// computeShadow projects when the blocked job j could start by releasing
// running jobs in end-time order over a scratch copy of node state. It
// returns the projected start (shadow) time and marks the nodes j would
// use in s.reserved.
func (s *Simulator) computeShadow(j *simJob, now int64) int64 {
	clear(s.reserved)
	k := s.releaseUntilFit(j, s.running)
	if k < 0 {
		// Queue ahead of us never frees enough (e.g. other pending jobs
		// hold no resources yet): no effective reservation.
		return 1 << 62
	}
	for _, id := range s.tryAlloc(s.scratch, j) {
		s.reserved[id] = true
	}
	if k == 0 {
		// Shouldn't happen (caller failed to alloc), but be safe.
		return now
	}
	return s.running[k-1].end
}
