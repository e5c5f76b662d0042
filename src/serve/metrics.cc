#include "serve/metrics.h"

#include <string>
#include <vector>

namespace pdx {
namespace serve {

namespace {

obs::Histogram Latency(const std::string& name) {
  // 100us .. 10s, decade buckets: wide enough for both the in-memory ping
  // path and a generic-solver certain-answer run.
  return obs::MetricsRegistry::Global().GetHistogram(
      name, {100, 1'000, 10'000, 100'000, 1'000'000, 10'000'000});
}

ServeMetrics MakeServeMetrics() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  ServeMetrics m;
  m.requests_total = reg.GetCounter("pdx_serve_requests_total");
  m.errors_total = reg.GetCounter("pdx_serve_errors_total");
  m.deadline_exceeded_total =
      reg.GetCounter("pdx_serve_deadline_exceeded_total");
  m.inflight_requests = reg.GetGauge("pdx_serve_inflight_requests");
  m.connections_total = reg.GetCounter("pdx_serve_connections_total");
  m.write_requests_total = reg.GetCounter("pdx_serve_write_requests_total");
  m.retract_requests_total =
      reg.GetCounter("pdx_serve_retract_requests_total");
  m.batches_total = reg.GetCounter("pdx_serve_batches_total");
  m.batch_retries_total = reg.GetCounter("pdx_serve_batch_retries_total");
  m.stream_fallbacks_total =
      reg.GetCounter("pdx_serve_stream_fallbacks_total");
  m.batch_size = reg.GetHistogram("pdx_serve_batch_size",
                                  {1, 2, 4, 8, 16, 32, 64, 128});
  m.queue_depth = reg.GetGauge("pdx_serve_queue_depth");
  m.generation_lag = reg.GetGauge("pdx_serve_generation_lag");
  m.generation_seq = reg.GetGauge("pdx_serve_generation_seq");
  m.tenants = reg.GetGauge("pdx_serve_tenants");
  for (size_t v = 0; v < kVerbCount; ++v) {
    m.latency[v] = Latency(std::string("pdx_serve_latency_micros_") +
                           VerbName(static_cast<Verb>(v)));
  }
  return m;
}

}  // namespace

ServeMetrics& GlobalServeMetrics() {
  static ServeMetrics* metrics = new ServeMetrics(MakeServeMetrics());
  return *metrics;
}

}  // namespace serve
}  // namespace pdx
