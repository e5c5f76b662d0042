#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Statistics helpers of the benchmark: sample sets whose tail percentile is
// only reported where the sample supports it, failure-aware latency limits
// and ratios that carry their base. Checked by RunStatsSelfTests(), which
// every benchmark run executes before measuring.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// A set of timings. A failed or refused operation is recorded as an
// infinite latency: it is counted, it sorts above every success, and it
// misses any latency limit.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void AddFailure();
  void Merge(const Samples& other);

  size_t count() const { return values_.size(); }
  size_t failures() const { return failures_; }
  bool empty() const { return values_.empty(); }

  // A nearest-rank percentile: the smallest sample with at least `p`% of
  // the samples at or below it. `samples_beyond` is how many lie above it.
  struct Point {
    double value = 0;
    double percentile = 0;  // the percentile actually reported
    size_t samples_beyond = 0;
    size_t count = 0;
    bool resolved = true;   // false: fewer than 10 samples beyond the median
  };

  Point Median() const;

  // The highest percentile at most `nominal` that still has at least 10
  // samples beyond it. With too few samples for any such percentile at or
  // above the median, reports the median with resolved = false.
  Point Tail(double nominal = 99.0) const;

  // "<value> (p<percentile>, n=<count>)" with the value in `unit`.
  static std::string Describe(const Point& point, const char* unit);

 private:
  Point At(const std::vector<double>& sorted, size_t rank) const;
  std::vector<double> Sorted() const;

  std::vector<double> values_;
  size_t failures_ = 0;
};

// The median of a small set of per-pass or per-repeat values (nearest
// rank; the lower middle for even counts). 0 for an empty set.
double MedianOf(std::vector<double> values);

// The tail of a run cut into time segments, robust to a stall confined to
// a few of them: the median over segments of each segment's Tail(nominal).
// `percentile` is the lowest any segment resolved (a segment of 64 samples
// resolves p84); `pooled` is the tail of all samples together.
struct SegmentedTail {
  double value = 0;
  double percentile = 0;
  bool resolved = true;
  size_t count = 0;     // samples over all segments
  size_t segments = 0;  // the median's base
  Samples::Point pooled;
  std::string Describe(const char* unit) const;
};
SegmentedTail MedianSegmentTail(const std::vector<Samples>& segments,
                                double nominal = 99.0);

// A ratio that always travels with its base.
struct Ratio {
  int64_t numerator = 0;
  int64_t base = 0;
  double value() const {
    return base > 0 ? static_cast<double>(numerator) / base : 0.0;
  }
  // "0.0196 (2/102)"
  std::string ToString() const;
};

// Checks the helpers above against hand-computed cases. Returns an empty
// string on success, else a description of the first failure.
std::string RunStatsSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
