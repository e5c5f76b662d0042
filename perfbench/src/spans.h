#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// The benchmark's tracing. Its spans are pdx::obs spans on the global
// tracer, opened in the benchmark's own code around each call it makes
// into a pdx module; they share the per-thread nesting stack with the
// program's own spans (chase.round, ctract.block_check, ...), so those
// nest under the benchmark's. A RequestSpan is the root of one request or
// pass: it carries the attribute "request", which every span below it
// shares.
//
// A traced run calls EnableSpans() first and CollectSpans() after each
// request, pass or phase, when no span is open, so that every drained span
// is drained together with its children. Collected spans are folded into a
// per-name summary (count, total and self time) and kept for WriteSpans.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

int64_t NowNs();

// A fresh process-wide id for a request or pass.
uint64_t NewRequestId();

// A span that starts a new request (attribute "request" = NewRequestId()).
class RequestSpan : public pdx::obs::Span {
 public:
  explicit RequestSpan(const char* name) : pdx::obs::Span(name) {
    if (id() != 0) AttrInt("request", static_cast<int64_t>(NewRequestId()));
  }
};

// Starts recording on the global tracer, with rings large enough to hold
// the spans of one pass or phase.
void EnableSpans();

// Drains the global tracer, folds the drained spans into the summary and
// the kept log, and returns them. Empty when tracing is off.
std::vector<pdx::obs::SpanRecord> CollectSpans();

// Spans the tracer had to overwrite because a ring was full.
uint64_t DroppedSpans();

// For each span named `root_name` in `spans`, the summed duration in
// seconds of its descendants named `name`: one value per root span.
std::vector<double> SecondsUnder(const std::vector<pdx::obs::SpanRecord>& spans,
                                 const std::string& root_name,
                                 const std::string& name);

struct SpanNameSummary {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;  // duration minus the union of its children's
};

// Per span name, over every collected span.
const std::map<std::string, SpanNameSummary>& SpanSummary();

// Writes the kept spans as a JSON array to `path`: name, id, parent,
// request (of the nearest RequestSpan above, 0 for none), thread, start,
// end and self time. At most kKeptPerName spans of each name are kept (the
// solver records one span per block check); returns how many were kept.
int64_t WriteSpans(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
