package trout

import (
	"sync"

	"repro/internal/livestate"
	"repro/internal/obs"
	"repro/internal/trace"
)

// snapCacheSlots bounds the cache to a handful of distinct prediction
// instants. Live traffic asks about "now", so one slot is hot and the rest
// absorb stragglers (clients probing nearby instants, replayed tests).
const snapCacheSlots = 8

// snapCacheRetries bounds how often an assembly retries after losing a
// version race before bypassing the cache entirely.
const snapCacheRetries = 4

// Cache lookup outcomes for trout_snapshot_cache_requests_total.
const (
	cacheHit    = "hit"
	cacheMiss   = "miss"
	cacheStale  = "stale"
	cacheBypass = "bypass"
)

// snapEntry is one cached extraction: the cluster-wide pending/running
// sets at (ver, at), plus per-user history resolved lazily on first use.
// Pending/running are shared read-only across every snapshot assembled
// from the entry — exactly the sharing SnapshotBatch does within one
// request, widened to all concurrent requests at the same instant.
type snapEntry struct {
	ver     uint64
	at      int64
	pending []trace.Job
	running []trace.Job

	// used is the LRU stamp, written under the cache mutex.
	used uint64

	// hist caches per-user past-day submission history. Entries are only
	// added after the engine confirms it is still at ver, so every value
	// in the map is consistent with pending/running.
	hmu  sync.RWMutex
	hist map[int][]trace.Job
}

// history returns the entry's cached past-day history for user, resolving
// it from the engine on first use. ok=false means the engine moved past
// the entry's version while resolving — the whole entry is stale and the
// caller must start over.
func (e *snapEntry) history(eng *livestate.Engine, user int) ([]trace.Job, bool) {
	e.hmu.RLock()
	h, ok := e.hist[user]
	e.hmu.RUnlock()
	if ok {
		return h, true
	}
	h, ok = eng.UserHistoryChecked(user, e.at, e.ver)
	if !ok {
		return nil, false
	}
	e.hmu.Lock()
	e.hist[user] = h
	e.hmu.Unlock()
	return h, true
}

// snapCache shares livestate snapshot extractions across concurrent
// requests. Entries are keyed (engine version, instant): the version moves
// on every applied event, /state reseed, follower WAL replay, and
// checkpoint restore, so any mutation orphans every cached entry at once —
// there is no explicit invalidation path to forget. A cold miss is
// computed exactly once (the build runs under the cache mutex, so
// concurrent misses for the same key queue behind the builder and then
// hit), and requests at a superseded version rebuild rather than serve
// pre-event state.
type snapCache struct {
	eng *livestate.Engine
	ops *obs.CounterVec // trout_snapshot_cache_requests_total{result}; may be nil

	mu    sync.Mutex
	clock uint64
	ents  [snapCacheSlots]*snapEntry
}

func newSnapCache(eng *livestate.Engine, ops *obs.CounterVec) *snapCache {
	return &snapCache{eng: eng, ops: ops}
}

func (c *snapCache) count(result string) {
	if c.ops != nil {
		c.ops.Inc(result)
	}
}

// entry returns the live cache entry for instant at, building one if the
// cache has no entry at the engine's current version. The bool reports
// whether the lookup was a hit.
func (c *snapCache) entry(at int64) (*snapEntry, bool) {
	c.mu.Lock()
	c.clock++
	stamp := c.clock
	ver := c.eng.Version()
	victim := 0
	for i, e := range c.ents {
		if e == nil {
			victim = i
			continue
		}
		if e.at == at && e.ver == ver {
			e.used = stamp
			c.mu.Unlock()
			return e, true
		}
		if c.ents[victim] != nil && e.used < c.ents[victim].used {
			victim = i
		}
	}
	// Miss: build while holding c.mu — that IS the singleflight. Every
	// concurrent request for this (ver, at) blocks here and finds the
	// fresh entry on its own pass. The extraction re-reads the version
	// under the engine lock, so the stored pair is exact even if an event
	// landed between our version read and the extraction.
	pending, running, ver2 := c.eng.PendingRunning(at)
	e := &snapEntry{
		ver: ver2, at: at, pending: pending, running: running,
		used: stamp, hist: make(map[int][]trace.Job, 16),
	}
	c.ents[victim] = e
	c.mu.Unlock()
	return e, false
}

// snapshotBatch assembles snapshots for many targets at one instant,
// equivalent to eng.SnapshotBatch(jobs, at): pending/running resolved
// once, history once per distinct user — but cached across requests, not
// just within one batch. Pending/running/history slices are shared —
// callers must treat them as read-only (featurization already does).
func (c *snapCache) snapshotBatch(jobs []trace.Job, at int64) []*Snapshot {
retry:
	for range snapCacheRetries {
		e, hit := c.entry(at)
		snaps := make([]*Snapshot, len(jobs))
		for i := range jobs {
			h, ok := e.history(c.eng, jobs[i].User)
			if !ok {
				c.count(cacheStale)
				continue retry
			}
			snaps[i] = &Snapshot{Now: at, Target: jobs[i], Pending: e.pending, Running: e.running, History: h}
		}
		if hit {
			c.count(cacheHit)
		} else {
			c.count(cacheMiss)
		}
		return snaps
	}
	// The engine is mutating faster than we can pin a version; take one
	// internally-consistent extraction directly.
	c.count(cacheBypass)
	return c.eng.SnapshotBatch(jobs, at)
}
