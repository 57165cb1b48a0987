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
