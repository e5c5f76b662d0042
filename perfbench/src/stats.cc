#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

namespace {

constexpr size_t kMinBeyond = 10;

// Nearest rank (1-based) of percentile p among n samples.
size_t RankOf(double p, size_t n) {
  double exact = p / 100.0 * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

void Samples::AddFailure() {
  values_.push_back(std::numeric_limits<double>::infinity());
  ++failures_;
}

void Samples::Merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  failures_ += other.failures_;
}

std::vector<double> Samples::Sorted() const {
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

Samples::Point Samples::At(const std::vector<double>& sorted,
                           size_t rank) const {
  Point point;
  point.count = sorted.size();
  if (sorted.empty()) return point;
  point.value = sorted[rank - 1];
  point.percentile = 100.0 * static_cast<double>(rank) / sorted.size();
  point.samples_beyond = sorted.size() - rank;
  return point;
}

Samples::Point Samples::Median() const {
  std::vector<double> sorted = Sorted();
  if (sorted.empty()) return Point{};
  Point point = At(sorted, RankOf(50, sorted.size()));
  point.resolved = point.samples_beyond >= kMinBeyond;
  return point;
}

Samples::Point Samples::Tail(double nominal) const {
  std::vector<double> sorted = Sorted();
  size_t n = sorted.size();
  if (n == 0) return Point{};
  size_t median_rank = RankOf(50, n);
  if (n < kMinBeyond + median_rank) {
    Point point = At(sorted, median_rank);
    point.resolved = false;
    return point;
  }
  size_t rank = std::min(RankOf(nominal, n), n - kMinBeyond);
  return At(sorted, rank);
}

std::string Samples::Describe(const Point& point, const char* unit) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "%.4f %s (p%.2f, n=%zu, %zu beyond%s)",
                point.value, unit, point.percentile, point.count,
                point.samples_beyond,
                point.resolved ? "" : ", tail unresolved: median shown");
  return buffer;
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[RankOf(50, values.size()) - 1];
}

SegmentedTail MedianSegmentTail(const std::vector<Samples>& segments,
                                double nominal) {
  SegmentedTail tail;
  Samples pooled;
  std::vector<double> values;
  tail.percentile = nominal;
  for (const Samples& segment : segments) {
    if (segment.empty()) continue;
    pooled.Merge(segment);
    Samples::Point point = segment.Tail(nominal);
    values.push_back(point.value);
    tail.percentile = std::min(tail.percentile, point.percentile);
    tail.resolved = tail.resolved && point.resolved;
  }
  tail.segments = values.size();
  tail.count = pooled.count();
  if (values.empty()) return tail;
  tail.pooled = pooled.Tail(nominal);
  tail.value = MedianOf(values);
  return tail;
}

std::string SegmentedTail::Describe(const char* unit) const {
  char buffer[240];
  std::snprintf(buffer, sizeof(buffer),
                "%.4f %s (median of %zu segment tails, each at least p%.2f "
                "with 10 beyond%s, n=%zu in all; pooled tail %s)",
                value, unit, segments, percentile,
                resolved ? "" : ", some unresolved: their median shown",
                count, Samples::Describe(pooled, unit).c_str());
  return buffer;
}

std::string Ratio::ToString() const {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "%.4f (%lld/%lld)", value(),
                static_cast<long long>(numerator),
                static_cast<long long>(base));
  return buffer;
}

std::string RunStatsSelfTests() {
  auto expect = [](bool ok, const char* what) {
    return ok ? std::string() : std::string("stats self-test failed: ") + what;
  };
  std::string failure;
  auto check = [&](bool ok, const char* what) {
    if (failure.empty()) failure = expect(ok, what);
  };

  // 1000 samples 1..1000: p99 is sample 990 with exactly 10 beyond it.
  Samples thousand;
  for (int i = 1000; i >= 1; --i) thousand.Add(i);
  Samples::Point p99 = thousand.Tail(99);
  check(p99.value == 990 && p99.samples_beyond == 10 &&
            std::fabs(p99.percentile - 99.0) < 1e-9 && p99.resolved,
        "p99 of 1..1000 is 990 with 10 beyond");
  check(thousand.Median().value == 500, "median of 1..1000 is 500");

  // 500 samples: p99 would leave 5 beyond, so the reported tail drops to
  // the highest percentile with 10 beyond (p98, sample 490).
  Samples five_hundred;
  for (int i = 1; i <= 500; ++i) five_hundred.Add(i);
  Samples::Point tail = five_hundred.Tail(99);
  check(tail.value == 490 && tail.samples_beyond == 10 &&
            std::fabs(tail.percentile - 98.0) < 1e-9,
        "tail of 500 samples is p98 with 10 beyond");

  // Too few samples for any tail: the median, flagged unresolved.
  Samples five;
  for (int i = 1; i <= 5; ++i) five.Add(i);
  Samples::Point small = five.Tail(99);
  check(small.value == 3 && !small.resolved && small.count == 5,
        "tail of 5 samples falls back to the unresolved median");

  // Failures count as samples and sort above every success: 20 failures
  // in 1000 requests put p99 at infinity, which misses any limit.
  Samples failing;
  for (int i = 1; i <= 980; ++i) failing.Add(i);
  for (int i = 0; i < 20; ++i) failing.AddFailure();
  check(failing.count() == 1000 && failing.failures() == 20,
        "failures are counted among the samples");
  check(std::isinf(failing.Tail(99).value),
        "1% failures push p99 past any latency limit");
  // Two failures in 102 stay beyond the reported tail but still shift it.
  Samples few_failures;
  for (int i = 1; i <= 100; ++i) few_failures.Add(i);
  few_failures.AddFailure();
  few_failures.AddFailure();
  check(few_failures.Tail(99).value == 92,
        "failures shift the tail rank like slow samples");

  // Segmented tails: a stall confined to one segment of five does not
  // move the median of the segment p99s.
  std::vector<Samples> segments(5);
  for (size_t s = 0; s < segments.size(); ++s) {
    for (int i = 1; i <= 1000; ++i) segments[s].Add(s == 2 ? 100 * i : i);
  }
  SegmentedTail by_p99 = MedianSegmentTail(segments);
  check(by_p99.value == 990 && by_p99.count == 5000 &&
            by_p99.segments == 5 && by_p99.pooled.value > 990 &&
            std::fabs(by_p99.percentile - 99.0) < 1e-9,
        "median of segment p99s ignores one stalled segment");
  // Segments too small for p99 report their own highest percentile with
  // 10 beyond (p84.38 of 64), and the result says so.
  std::vector<Samples> small_segments(3);
  for (size_t s = 0; s < small_segments.size(); ++s) {
    for (int i = 1; i <= 64; ++i) small_segments[s].Add(i + 10.0 * s);
  }
  SegmentedTail small_tail = MedianSegmentTail(small_segments);
  check(small_tail.value == 64 && small_tail.resolved &&
            std::fabs(small_tail.percentile - 84.375) < 1e-9,
        "small segments report their highest resolvable percentile");

  // Ratios print their base.
  Ratio error_ratio{2, 102};
  check(error_ratio.ToString() == "0.0196 (2/102)",
        "a ratio prints its numerator and base");
  check(Ratio{0, 0}.value() == 0, "a ratio with no base is 0");
  check(MedianOf({3, 1, 2}) == 2 && MedianOf({4, 1, 3, 2}) == 2,
        "MedianOf takes the lower middle");
  return failure;
}

}  // namespace perfbench
