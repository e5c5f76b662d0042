#ifndef PDX_SERVE_METRICS_H_
#define PDX_SERVE_METRICS_H_

// The pdxd serving metrics, registered once in the process-wide
// MetricsRegistry and exported over the daemon's /metrics endpoint in
// Prometheus 0.0.4 text format. The registry has no label support, so the
// per-verb latency histograms are distinct metrics
// (pdx_serve_latency_micros_<verb>, one per entry of the verb table in
// serve/verbs.h) rather than one labeled family.

#include <array>
#include <cstdint>

#include "obs/metrics.h"
#include "serve/verbs.h"

namespace pdx {
namespace serve {

struct ServeMetrics {
  // Request flow.
  obs::Counter requests_total;        // every request handled, any verb
  obs::Counter errors_total;          // requests answered with ok=false
  obs::Counter deadline_exceeded_total;
  obs::Gauge inflight_requests;       // currently being handled
  obs::Counter connections_total;     // accepted protocol connections

  // Write path: the headline acceptance ratio is
  // batches_total / write_requests_total — N compatible writes admitted
  // while the writer is busy coalesce into ONE chase round.
  obs::Counter write_requests_total;  // write verbs admitted to a queue
  obs::Counter retract_requests_total;  // retract verbs admitted to a queue
  obs::Counter batches_total;         // coalesced chase rounds run
  obs::Counter batch_retries_total;   // individual replays after a failed
                                      // coalesced batch
  obs::Counter stream_fallbacks_total;  // deletion batches that invalidated
                                        // an egd merge and re-chased fully
  obs::Histogram batch_size;          // writes per published batch
  obs::Gauge queue_depth;             // tickets waiting in admission queues
  obs::Gauge generation_lag;          // writes admitted but not yet visible
                                      // in a published generation
  obs::Gauge generation_seq;          // highest generation published

  // Tenant registry.
  obs::Gauge tenants;

  // Per-verb wall-clock latency, in microseconds, indexed by Verb.
  // Requests that name no known verb observe none of them.
  std::array<obs::Histogram, kVerbCount> latency;

  obs::Histogram& LatencyFor(Verb verb) {
    return latency[static_cast<size_t>(verb)];
  }
};

// The process-wide instance (handles into MetricsRegistry::Global()).
ServeMetrics& GlobalServeMetrics();

}  // namespace serve
}  // namespace pdx

#endif  // PDX_SERVE_METRICS_H_
