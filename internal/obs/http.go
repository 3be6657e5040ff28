package obs

import (
	"fmt"
	"net/http"
)

// DebugHandler serves the observability endpoints:
//
//	/metrics  Prometheus text-format exposition of the registry
//	/healthz  200 "ok" while health() returns nil, 503 otherwise
//	/spans    JSON dump of the span collector's trace trees and recent events
//
// Any of registry, collector, and health may be nil; the corresponding
// endpoint then reports 404 (for /metrics and /spans) or plain liveness
// (for /healthz).
func DebugHandler(registry *Registry, collector *Collector, health func() error) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if registry == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = registry.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if health != nil {
			if err := health(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		if collector == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = collector.WriteJSON(w)
	})
	return mux
}
