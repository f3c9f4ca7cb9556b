package server

import (
	"repro/internal/dataset"
	"repro/internal/engine"
)

// dataView exposes a consistent combined-dataset snapshot of the store for
// white-box tests that compare full rating state between services.
func (s *Service) dataView() *dataset.Dataset {
	return s.store.View()
}

// served returns the result the service last computed and serves from
// (an empty one before the first evaluation).
func (s *Service) served() *engine.Result {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.result
}
