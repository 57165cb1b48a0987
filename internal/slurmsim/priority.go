package slurmsim

import "math"

// PriorityWeights are the Slurm multifactor plugin weights. Priority is
// computed as the weighted sum of factors in [0, 1]; jobs are then evaluated
// in the order the Slurm documentation gives (partition tier first, then
// priority, then submit time, then job ID).
type PriorityWeights struct {
	Age       float64 // grows toward 1 as a job waits
	Fairshare float64 // 2^(-usage/share)
	JobSize   float64 // favors larger jobs, as Slurm defaults do
	Partition float64 // partition tier, normalized
	QOS       float64 // QOS tier, normalized
	// MaxAge is the queue age (seconds) at which the age factor saturates.
	MaxAge int64
}

// DefaultPriorityWeights resemble a fair-share-dominant site configuration
// like Anvil's.
func DefaultPriorityWeights() PriorityWeights {
	return PriorityWeights{
		Age:       1000,
		Fairshare: 10000,
		JobSize:   500,
		Partition: 2000,
		QOS:       1000,
		MaxAge:    7 * 24 * 3600,
	}
}

// fairshare tracks decayed per-user usage and converts it to a priority
// factor. Usage decays exponentially with a configurable half-life, the way
// Slurm's PriorityDecayHalfLife works.
type fairshare struct {
	halfLife float64 // seconds
	usage    map[int]float64
	lastTick map[int]int64
	total    float64
	totalAt  int64
	shares   map[int]float64 // share fraction per user; default equal
}

func newFairshare(halfLife int64) *fairshare {
	return &fairshare{
		halfLife: float64(halfLife),
		usage:    map[int]float64{},
		lastTick: map[int]int64{},
		shares:   map[int]float64{},
	}
}

// decayTo applies lazy exponential decay to a stored usage value.
func (f *fairshare) decayTo(v float64, from, to int64) float64 {
	if to <= from || v == 0 || f.halfLife <= 0 {
		return v
	}
	return v * math.Exp2(-float64(to-from)/f.halfLife)
}

// Charge adds cpuSeconds of usage for user at time now.
func (f *fairshare) Charge(user int, cpuSeconds float64, now int64) {
	f.usage[user] = f.decayTo(f.usage[user], f.lastTick[user], now) + cpuSeconds
	f.lastTick[user] = now
	f.total = f.decayTo(f.total, f.totalAt, now) + cpuSeconds
	f.totalAt = now
}

// Factor returns the fair-share priority factor in (0, 1] for user at now.
// With no recorded usage anywhere the factor is 1.
func (f *fairshare) Factor(user int, now int64, nUsers int) float64 {
	total := f.decayTo(f.total, f.totalAt, now)
	if total <= 0 {
		return 1
	}
	u := f.decayTo(f.usage[user], f.lastTick[user], now) / total
	share := f.shares[user]
	if share == 0 {
		if nUsers < 1 {
			nUsers = 1
		}
		share = 1 / float64(nUsers)
	}
	return math.Exp2(-u / share)
}

// maxQOS is the number of QOS tiers (0 = lowest).
const maxQOS = 3

// userFactor returns user's fair-share factor at now, computed once per
// instant and usage state (finish clears s.factors after its Charge).
func (s *Simulator) userFactor(user int, now int64) float64 {
	if now != s.factorAt {
		clear(s.factors)
		s.factorAt = now
	}
	v, ok := s.factors[user]
	if !ok {
		v = s.fs.Factor(user, now, s.nUsers)
		s.factors[user] = v
	}
	return v
}

// jobPriority computes the live multifactor priority of a pending job.
func (s *Simulator) jobPriority(j *simJob, now int64) float64 {
	w := s.cfg.Weights
	age := float64(now - j.eligible)
	if age < 0 {
		age = 0
	}
	ageFactor := 1.0
	if w.MaxAge > 0 {
		ageFactor = math.Min(1, age/float64(w.MaxAge))
	}
	fsFactor := s.userFactor(j.spec.User, now)
	sizeFactor := float64(j.spec.ReqCPUs) / float64(s.totalCPUs)
	if sizeFactor > 1 {
		sizeFactor = 1
	}
	tierFactor := float64(j.part.Tier) / float64(s.maxTier)
	qosFactor := float64(j.spec.QOS) / float64(maxQOS)
	return w.Age*ageFactor + w.Fairshare*fsFactor + w.JobSize*sizeFactor +
		w.Partition*tierFactor + w.QOS*qosFactor
}
