package server

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/obs"
	"repro/internal/relational"
)

// handleMetrics renders every view's statistics as Prometheus-style
// text, hand-rolled so the daemon stays dependency-free. Each family is
// the stat tag on the ViewStats field it reads, or on a field of the
// plan and engine statistics under it (obs.WriteStats); the per-endpoint
// latencies and a sharded view's per-shard rollups are series of their
// own, labeled by endpoint and by shard.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var (
		views    []obs.StatSeries[ViewStats]
		shards   []obs.StatSeries[relational.ShardStat]
		requests []obs.StatSeries[EndpointLatency]
	)
	for _, v := range s.Registry.Views() { // sorted by name
		st, label := v.Stats(), fmt.Sprintf("view=%q", v.Name)
		views = append(views, obs.StatSeries[ViewStats]{Labels: label, Stats: st})
		for _, sh := range st.ShardStats {
			shards = append(shards, obs.StatSeries[relational.ShardStat]{Labels: label, Stats: sh})
		}
		for _, ep := range st.Requests {
			requests = append(requests, obs.StatSeries[EndpointLatency]{Labels: label, Stats: ep})
		}
	}
	var b strings.Builder
	obs.WriteStats(&b, "ufilterd_", false, views)
	obs.WriteStats(&b, "ufilterd_shard_", true, shards)
	obs.WriteStats(&b, "ufilterd_", false, requests)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}
