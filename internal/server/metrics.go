package server

import (
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"github.com/crsky/crsky/internal/obs"
)

// handleMetrics renders the process metrics in the Prometheus text
// exposition format (0.0.4), hand-written over the obs primitives — the
// service takes no dependency on a client library. Families:
//
//	crsky_request_duration_seconds{route,model,outcome}  histogram
//	crsky_pool_wait_seconds, crsky_watch_reeval_seconds  histograms
//	crsky_pool_*, crsky_cache_*                          gauges/counters
//	crsky_shed_total, crsky_admission_*, crsky_draining  admission
//	crsky_requests_total{endpoint}, crsky_request_*      counters
//	crsky_explain_*, crsky_mutations_total               counters
//	crsky_watch_*, crsky_store_*, crsky_dataset*         gauges/counters
//	crsky_panics_total, crsky_upload_rejected_total,     counters
//	crsky_slow_queries_total, crsky_uptime_seconds       counter/gauge
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	obs.PromHistogramVec(&b, "crsky_request_duration_seconds",
		"Request latency by route, dataset model, and outcome.", s.reqHist)
	obs.PromHead(&b, "crsky_pool_wait_seconds", "histogram",
		"Time compute requests spent queued for a worker-pool slot.")
	obs.PromHistogram(&b, "crsky_pool_wait_seconds", nil, s.pool.wait.Snapshot())

	ps := s.pool.Stats()
	obs.PromHead(&b, "crsky_pool_workers", "gauge", "Worker-pool capacity.")
	obs.PromValue(&b, "crsky_pool_workers", nil, float64(ps.Workers))
	obs.PromHead(&b, "crsky_pool_inflight", "gauge", "Compute requests currently executing.")
	obs.PromValue(&b, "crsky_pool_inflight", nil, float64(ps.InFlight))
	obs.PromHead(&b, "crsky_pool_queue_depth", "gauge", "Compute requests waiting for a pool slot.")
	obs.PromValue(&b, "crsky_pool_queue_depth", nil, float64(ps.QueueDepth))
	obs.PromHead(&b, "crsky_pool_completed_total", "counter", "Pooled computations completed.")
	obs.PromValue(&b, "crsky_pool_completed_total", nil, float64(ps.Completed))
	obs.PromHead(&b, "crsky_pool_canceled_total", "counter", "Requests canceled while waiting for a slot.")
	obs.PromValue(&b, "crsky_pool_canceled_total", nil, float64(ps.Canceled))

	obs.PromHead(&b, "crsky_shed_total", "counter", "Requests rejected by admission control, by priority class.")
	obs.PromValue(&b, "crsky_shed_total", []obs.Label{{Name: "class", Value: "batch"}}, float64(s.shedBatch.Value()))
	obs.PromValue(&b, "crsky_shed_total", []obs.Label{{Name: "class", Value: "explain"}}, float64(s.shedExplain.Value()))
	obs.PromValue(&b, "crsky_shed_total", []obs.Label{{Name: "class", Value: "query"}}, float64(s.shedQuery.Value()))
	obs.PromHead(&b, "crsky_admission_est_wait_seconds", "gauge", "Estimated pool wait (queue depth x median slot wait).")
	obs.PromValue(&b, "crsky_admission_est_wait_seconds", nil, s.estWait().Seconds())
	obs.PromHead(&b, "crsky_draining", "gauge", "1 while the server is draining for shutdown.")
	draining := 0.0
	if s.Draining() {
		draining = 1
	}
	obs.PromValue(&b, "crsky_draining", nil, draining)
	obs.PromHead(&b, "crsky_panics_total", "counter", "Recovered panics: handler panics answered 500, and explain items that failed alone.")
	obs.PromValue(&b, "crsky_panics_total", nil, float64(s.panics.Value()))

	cs := s.cache.Stats()
	obs.PromHead(&b, "crsky_cache_entries", "gauge", "Result-cache entries.")
	obs.PromValue(&b, "crsky_cache_entries", nil, float64(cs.Size))
	obs.PromHead(&b, "crsky_cache_hits_total", "counter", "Result-cache hits.")
	obs.PromValue(&b, "crsky_cache_hits_total", nil, float64(cs.Hits))
	obs.PromHead(&b, "crsky_cache_misses_total", "counter", "Result-cache misses.")
	obs.PromValue(&b, "crsky_cache_misses_total", nil, float64(cs.Misses))
	obs.PromHead(&b, "crsky_cache_evictions_total", "counter", "Result-cache evictions.")
	obs.PromValue(&b, "crsky_cache_evictions_total", nil, float64(cs.Evictions))

	obs.PromHead(&b, "crsky_requests_total", "counter", "Compute requests by endpoint.")
	obs.PromValue(&b, "crsky_requests_total", []obs.Label{{Name: "endpoint", Value: "query"}}, float64(s.reqQuery.Value()))
	obs.PromValue(&b, "crsky_requests_total", []obs.Label{{Name: "endpoint", Value: "explain"}}, float64(s.reqExplain.Value()))
	obs.PromValue(&b, "crsky_requests_total", []obs.Label{{Name: "endpoint", Value: "repair"}}, float64(s.reqRepair.Value()))
	obs.PromHead(&b, "crsky_request_errors_total", "counter", "Requests answered with an error response.")
	obs.PromValue(&b, "crsky_request_errors_total", nil, float64(s.reqErrors.Value()))

	obs.PromHead(&b, "crsky_mutations_total", "counter", "Committed object mutations by op and dataset model.")
	for _, op := range []string{"insert", "delete"} {
		for _, model := range []string{ModelCertain, ModelSample, ModelPDF} {
			if c := s.mutations[op+"|"+model]; c != nil {
				obs.PromValue(&b, "crsky_mutations_total",
					[]obs.Label{{Name: "op", Value: op}, {Name: "model", Value: model}}, float64(c.Value()))
			}
		}
	}

	ws := s.watch.Stats()
	obs.PromHead(&b, "crsky_watch_active", "gauge", "Open /v2/watch subscriptions.")
	obs.PromValue(&b, "crsky_watch_active", nil, float64(ws.Active))
	obs.PromHead(&b, "crsky_watch_events_total", "counter", "Watch events delivered, by kind.")
	obs.PromValue(&b, "crsky_watch_events_total", []obs.Label{{Name: "kind", Value: "registered"}}, float64(ws.Registered))
	obs.PromValue(&b, "crsky_watch_events_total", []obs.Label{{Name: "kind", Value: "flipped"}}, float64(ws.Flipped))
	obs.PromValue(&b, "crsky_watch_events_total", []obs.Label{{Name: "kind", Value: "repair_shrunk"}}, float64(ws.RepairShrunk))
	obs.PromValue(&b, "crsky_watch_events_total", []obs.Label{{Name: "kind", Value: "deleted"}}, float64(ws.Deleted))
	obs.PromHead(&b, "crsky_watch_pruned_total", "counter", "Subscriptions skipped by the mutation-window bound.")
	obs.PromValue(&b, "crsky_watch_pruned_total", nil, float64(ws.Pruned))
	obs.PromHead(&b, "crsky_watch_dropped_total", "counter", "Watch events dropped on slow subscriber buffers.")
	obs.PromValue(&b, "crsky_watch_dropped_total", nil, float64(ws.Dropped))
	obs.PromHead(&b, "crsky_watch_reeval_seconds", "histogram",
		"Latency of one post-mutation watch re-evaluation round.")
	obs.PromHistogram(&b, "crsky_watch_reeval_seconds", nil, s.watchReeval.Snapshot())
	obs.PromHead(&b, "crsky_upload_rejected_total", "counter", "Request bodies refused with 413 for exceeding the size cap.")
	obs.PromValue(&b, "crsky_upload_rejected_total", nil, float64(s.uploadRejected.Value()))

	if st := s.cfg.Store; st != nil {
		ss := st.Stats()
		obs.PromHead(&b, "crsky_store_datasets", "gauge", "Datasets held by the durable store.")
		obs.PromValue(&b, "crsky_store_datasets", nil, float64(ss.Datasets))
		obs.PromHead(&b, "crsky_store_wal_bytes", "gauge", "Current write-ahead log size.")
		obs.PromValue(&b, "crsky_store_wal_bytes", nil, float64(ss.WALBytes))
		obs.PromHead(&b, "crsky_store_wal_appends_total", "counter", "Committed WAL records since open.")
		obs.PromValue(&b, "crsky_store_wal_appends_total", nil, float64(ss.WALAppends))
		obs.PromHead(&b, "crsky_store_snapshots_written_total", "counter", "Snapshot checkpoints written since open.")
		obs.PromValue(&b, "crsky_store_snapshots_written_total", nil, float64(ss.SnapshotsWritten))
		obs.PromHead(&b, "crsky_store_compactions_total", "counter", "WAL compactions since open.")
		obs.PromValue(&b, "crsky_store_compactions_total", nil, float64(ss.Compactions))
		obs.PromHead(&b, "crsky_store_corrupt_total", "counter", "Files quarantined for failing integrity checks.")
		obs.PromValue(&b, "crsky_store_corrupt_total", nil, float64(ss.CorruptTotal))
	}

	obs.PromHead(&b, "crsky_explain_computed_total", "counter", "Explanations computed (cache hits excluded).")
	obs.PromValue(&b, "crsky_explain_computed_total", nil, float64(s.explainComputed.Value()))
	obs.PromHead(&b, "crsky_explain_subsets_examined_total", "counter", "Refinement subset verifications.")
	obs.PromValue(&b, "crsky_explain_subsets_examined_total", nil, float64(s.explainSubsets.Value()))
	obs.PromHead(&b, "crsky_explain_filter_node_accesses_total", "counter", "Candidate-retrieval node accesses.")
	obs.PromValue(&b, "crsky_explain_filter_node_accesses_total", nil, float64(s.explainFilterIO.Value()))

	infos := s.reg.list()
	obs.PromHead(&b, "crsky_datasets", "gauge", "Registered datasets.")
	obs.PromValue(&b, "crsky_datasets", nil, float64(len(infos)))
	obs.PromHead(&b, "crsky_dataset_objects", "gauge", "Objects per registered dataset.")
	for _, info := range infos {
		obs.PromValue(&b, "crsky_dataset_objects",
			[]obs.Label{{Name: "dataset", Value: info.Name}, {Name: "model", Value: info.Model}}, float64(info.Size))
	}
	obs.PromHead(&b, "crsky_dataset_node_accesses_total", "counter", "Simulated index I/O per dataset since registration.")
	for _, info := range infos {
		obs.PromValue(&b, "crsky_dataset_node_accesses_total",
			[]obs.Label{{Name: "dataset", Value: info.Name}, {Name: "model", Value: info.Model}}, float64(info.NodeAccesses))
	}

	if s.slow != nil {
		obs.PromHead(&b, "crsky_slow_queries_total", "counter", "Requests logged above the slow-query threshold.")
		obs.PromValue(&b, "crsky_slow_queries_total", nil, float64(s.slow.Written()))
	}

	obs.PromHead(&b, "crsky_uptime_seconds", "gauge", "Seconds since server start.")
	obs.PromValue(&b, "crsky_uptime_seconds", nil, time.Since(s.start).Seconds())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// AdminHandler returns the opt-in admin mux: /metrics (Prometheus text)
// and the net/http/pprof profiling endpoints. It is intentionally separate
// from Handler so deployments bind it to a loopback or otherwise shielded
// listener — profiles and metrics are operator surface, not client API.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
