#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

using pdx::obs::SpanRecord;

// Per-thread ring size: enough for the spans of one bulk pass (the solver
// records one per block check, about 50 000 a pass).
constexpr size_t kRingCapacity = 1 << 18;
constexpr int64_t kKeptPerName = 5000;

struct KeptSpan {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t request = 0;
  int tid = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t self_ns = 0;
};

std::atomic<uint64_t> next_request{1};
std::mutex mu;
std::map<std::string, SpanNameSummary> summary;  // guarded by mu
std::vector<KeptSpan> kept;                      // guarded by mu

std::unordered_map<uint64_t, size_t> IndexById(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  return index;
}

// Self time of every span: duration minus the union of its children's
// intervals clipped to it.
std::vector<int64_t> SelfTimes(
    const std::vector<SpanRecord>& spans,
    const std::unordered_map<uint64_t, size_t>& index) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& span : spans) {
    auto it = index.find(span.parent);
    if (span.parent == 0 || it == index.end()) continue;
    children[it->second].emplace_back(span.start_ns,
                                      span.start_ns + span.dur_ns);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    int64_t span_end = span.start_ns + span.dur_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span_end);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = span.dur_ns - covered;
  }
  return self;
}

int64_t RequestAttr(const SpanRecord& span) {
  for (const pdx::obs::SpanAttr& attr : span.attrs) {
    if (attr.key == "request") return attr.i;
  }
  return 0;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t NewRequestId() {
  return next_request.fetch_add(1, std::memory_order_relaxed);
}

void EnableSpans() { pdx::obs::Tracer::Global().Enable(kRingCapacity); }

std::vector<SpanRecord> CollectSpans() {
  std::vector<SpanRecord> spans = pdx::obs::Tracer::Global().Drain();
  std::unordered_map<uint64_t, size_t> index = IndexById(spans);
  std::vector<int64_t> self = SelfTimes(spans, index);
  std::lock_guard<std::mutex> lock(mu);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    SpanNameSummary& entry = summary[span.name];
    ++entry.count;
    entry.total_ns += span.dur_ns;
    entry.self_ns += self[i];
    if (entry.count > kKeptPerName) continue;
    int64_t request = RequestAttr(span);
    for (uint64_t up = span.parent; request == 0 && up != 0;) {
      auto it = index.find(up);
      if (it == index.end()) break;
      request = RequestAttr(spans[it->second]);
      up = spans[it->second].parent;
    }
    kept.push_back({span.name, span.id, span.parent, request, span.tid,
                    span.start_ns, span.start_ns + span.dur_ns, self[i]});
  }
  return spans;
}

uint64_t DroppedSpans() { return pdx::obs::Tracer::Global().dropped(); }

std::vector<double> SecondsUnder(const std::vector<SpanRecord>& spans,
                                 const std::string& root_name,
                                 const std::string& name) {
  std::unordered_map<uint64_t, size_t> index = IndexById(spans);
  std::unordered_map<uint64_t, double> per_root;
  std::vector<uint64_t> roots;
  for (const SpanRecord& span : spans) {
    if (span.name == root_name) {
      roots.push_back(span.id);
      per_root.emplace(span.id, 0.0);
    }
  }
  for (const SpanRecord& span : spans) {
    if (span.name != name) continue;
    for (uint64_t up = span.parent; up != 0;) {
      auto root = per_root.find(up);
      if (root != per_root.end()) {
        root->second += span.dur_ns / 1e9;
        break;
      }
      auto it = index.find(up);
      if (it == index.end()) break;
      up = spans[it->second].parent;
    }
  }
  std::vector<double> seconds;
  for (uint64_t root : roots) seconds.push_back(per_root[root]);
  return seconds;
}

const std::map<std::string, SpanNameSummary>& SpanSummary() {
  return summary;
}

int64_t WriteSpans(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return -1;
  std::lock_guard<std::mutex> lock(mu);
  std::fputs("[\n", file);
  for (size_t i = 0; i < kept.size(); ++i) {
    const KeptSpan& span = kept[i];
    std::fprintf(file,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%lld,\"thread\":%d,\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"self_ns\":%lld}%s\n",
                 span.name.c_str(), static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<long long>(span.request), span.tid,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.self_ns),
                 i + 1 < kept.size() ? "," : "");
  }
  std::fputs("]\n", file);
  if (std::fclose(file) != 0) return -1;
  return static_cast<int64_t>(kept.size());
}

}  // namespace perfbench
