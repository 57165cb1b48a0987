package trout

import (
	"net/http"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// handleMetrics renders every family in the service's obs.Registry in
// Prometheus text exposition format 0.0.4: prediction tier counters, HTTP
// request counters and latency, per-stage predict pipeline latency,
// livestate engine gauges (queue depth by partition follows the
// prometheus-slurm-exporter convention), WAL durability gauges, online
// accuracy, and training telemetry. Output is deterministically ordered so
// scrapes diff cleanly.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		resilience.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	w.Header().Set("Content-Type", obs.ContentType)
	w.WriteHeader(http.StatusOK)
	_ = s.reg.WriteText(w)
}
