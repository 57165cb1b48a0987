package trout

import (
	"context"

	"repro/internal/controlplane"
)

// DefaultTrainer exposes the production retrain path to the external
// tests, which check its scores against an independent evaluation.
func (s *Service) DefaultTrainer() func(context.Context) (*controlplane.Candidate, error) {
	return s.defaultTrainer()
}

// DrainArenaPool takes every predict arena the pool hands this goroutine
// until it hands a fresh one, and reports how many it took and the most
// jobs any of them has room for, the decoded bodies included.
func DrainArenaPool() (arenas, room int) {
	for {
		a := getArena()
		if a.room() == 0 && a.one == (predictRequest{}) && a.batch.Jobs == nil {
			return arenas, room
		}
		arenas++
		room = max(room, a.room(), cap(a.batch.Jobs))
	}
}
