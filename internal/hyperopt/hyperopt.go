// Package hyperopt is the Optuna stand-in (§III): random search over typed
// hyperparameter spaces with a successive-halving pruner. The paper tunes
// learning rate, epochs, hidden-layer count and sizes, dropout, feature
// subsets and activation with Optuna; the same spaces are expressible here.
package hyperopt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Param declares one dimension of the search space.
type Param struct {
	Name string
	// Exactly one of the following shapes applies.
	Min, Max float64  // numeric range (uniform)
	Log      bool     // sample numeric on a log scale
	Int      bool     // round numeric to integer
	Choices  []string // categorical
}

// Uniform declares a uniform float parameter.
func Uniform(name string, min, max float64) Param { return Param{Name: name, Min: min, Max: max} }

// LogUniform declares a log-uniform float parameter (e.g. learning rate).
func LogUniform(name string, min, max float64) Param {
	return Param{Name: name, Min: min, Max: max, Log: true}
}

// IntRange declares an integer parameter in [min, max].
func IntRange(name string, min, max int) Param {
	return Param{Name: name, Min: float64(min), Max: float64(max), Int: true}
}

// Categorical declares a choice parameter.
func Categorical(name string, choices ...string) Param {
	return Param{Name: name, Choices: choices}
}

// Trial is one sampled configuration.
type Trial struct {
	ID     int
	Floats map[string]float64
	Ints   map[string]int
	Cats   map[string]string
	Score  float64 // lower is better
	Pruned bool
	Budget int // resource units granted (e.g. epochs)
}

// Float returns a float parameter value.
func (t *Trial) Float(name string) float64 { return t.Floats[name] }

// Int returns an integer parameter value.
func (t *Trial) Int(name string) int { return t.Ints[name] }

// Cat returns a categorical parameter value.
func (t *Trial) Cat(name string) string { return t.Cats[name] }

// Objective evaluates a trial at the given resource budget and returns a
// score to minimize.
type Objective func(t *Trial, budget int) float64

// Config controls the search.
type Config struct {
	Trials int // 0 means 20
	Seed   int64
	// Halving enables successive halving: trials are evaluated at
	// MinBudget, the best 1/Eta survive to Eta×budget, and so on up to
	// MaxBudget.
	Halving              bool
	MinBudget, MaxBudget int
	Eta                  int // halving factor; 0 means 3
}

// Result is the outcome of a search.
type Result struct {
	Best   *Trial
	Trials []*Trial
}

// Search samples configurations and minimizes the objective.
func Search(cfg Config, space []Param, obj Objective) (Result, error) {
	if len(space) == 0 {
		return Result{}, fmt.Errorf("hyperopt: empty search space")
	}
	if obj == nil {
		return Result{}, fmt.Errorf("hyperopt: nil objective")
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 20
	}
	if cfg.Eta <= 0 {
		cfg.Eta = 3
	}
	if cfg.Halving {
		if cfg.MinBudget <= 0 || cfg.MaxBudget < cfg.MinBudget {
			return Result{}, fmt.Errorf("hyperopt: invalid halving budgets %d..%d", cfg.MinBudget, cfg.MaxBudget)
		}
	}
	for _, p := range space {
		if len(p.Choices) == 0 && p.Max < p.Min {
			return Result{}, fmt.Errorf("hyperopt: parameter %q has max < min", p.Name)
		}
		if p.Log && p.Min <= 0 {
			return Result{}, fmt.Errorf("hyperopt: log parameter %q needs positive min", p.Name)
		}
	}

	// Each trial samples from an RNG derived from Seed+ID, so trial i's
	// configuration does not depend on the order trials are drawn in.
	trials := make([]*Trial, cfg.Trials)
	for i := range trials {
		trials[i] = sample(rand.New(rand.NewSource(cfg.Seed+int64(i))), space, i)
	}

	if !cfg.Halving {
		evalAll(trials, 1, obj)
	} else {
		// Successive halving: everyone starts at MinBudget; the best
		// 1/Eta advance with Eta× the budget until MaxBudget.
		alive := trials
		budget := cfg.MinBudget
		for {
			evalAll(alive, budget, obj)
			if budget >= cfg.MaxBudget || len(alive) <= 1 {
				break
			}
			// Ties break on trial ID so the rung cut is deterministic.
			sort.Slice(alive, func(a, b int) bool {
				if alive[a].Score != alive[b].Score {
					return alive[a].Score < alive[b].Score
				}
				return alive[a].ID < alive[b].ID
			})
			keep := len(alive) / cfg.Eta
			if keep < 1 {
				keep = 1
			}
			for _, t := range alive[keep:] {
				t.Pruned = true
			}
			alive = alive[:keep]
			budget *= cfg.Eta
			if budget > cfg.MaxBudget {
				budget = cfg.MaxBudget
			}
		}
	}

	best := trials[0]
	for _, t := range trials {
		if t.Pruned {
			continue
		}
		if best.Pruned || t.Score < best.Score {
			best = t
		}
	}
	return Result{Best: best, Trials: trials}, nil
}

// evalAll scores every trial at the given budget, in order.
func evalAll(trials []*Trial, budget int, obj Objective) {
	for _, t := range trials {
		t.Budget = budget
		t.Score = obj(t, budget)
	}
}

// sample draws one configuration.
func sample(rng *rand.Rand, space []Param, id int) *Trial {
	t := &Trial{
		ID:     id,
		Floats: map[string]float64{},
		Ints:   map[string]int{},
		Cats:   map[string]string{},
	}
	for _, p := range space {
		switch {
		case len(p.Choices) > 0:
			t.Cats[p.Name] = p.Choices[rng.Intn(len(p.Choices))]
		case p.Int:
			lo, hi := int(p.Min), int(p.Max)
			t.Ints[p.Name] = lo + rng.Intn(hi-lo+1)
		case p.Log:
			v := math.Exp(math.Log(p.Min) + rng.Float64()*(math.Log(p.Max)-math.Log(p.Min)))
			t.Floats[p.Name] = v
		default:
			t.Floats[p.Name] = p.Min + rng.Float64()*(p.Max-p.Min)
		}
	}
	return t
}
