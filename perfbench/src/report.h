#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// What one benchmark run reports: its metrics (name, value, unit, and a
// human-readable line saying what was measured, on how many samples and
// against which base), the operations it attempted and failed, and the
// output checks it ran. Print() writes one line per metric and check, then
// the one-line JSON result as the last line of standard output.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& detail) {
    std::lock_guard<std::mutex> lock(mu_);
    metrics_[name] = Entry{value, unit, detail};
  }

  // Records a failed output check; the run then reports correct = false.
  void CheckFailed(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (check_failures_.size() < 20) check_failures_.push_back(what);
    ++check_failure_count_;
  }
  void CheckPassed(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    checks_passed_.push_back(what);
  }

  void Note(const std::string& line) {
    std::lock_guard<std::mutex> lock(mu_);
    notes_.push_back(line);
  }

  // Operations attempted / failed or refused (their ratio is error_ratio).
  void CountOperations(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return check_failure_count_ == 0; }

  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }

  // Prints notes, checks and metric details, then the JSON result line
  // with every metric measured. perfbench/run.py keeps the ones
  // BENCHMARK.json names for the run's mode.
  void Print() const {
    for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
    for (const std::string& check : checks_passed_) {
      std::printf("check ok: %s\n", check.c_str());
    }
    for (const std::string& failure : check_failures_) {
      std::printf("CHECK FAILED: %s\n", failure.c_str());
    }
    if (check_failure_count_ > static_cast<int64_t>(check_failures_.size())) {
      std::printf("CHECK FAILED: ... %lld failures in total\n",
                  static_cast<long long>(check_failure_count_));
    }
    std::printf("error_ratio = %s (failed or refused operations / "
                "attempted)\n",
                Ratio{failed_, attempted_}.ToString().c_str());
    for (const auto& [name, entry] : metrics_) {
      std::printf("%s = %.6g %s  [%s]\n", name.c_str(), entry.value,
                  entry.unit.c_str(), entry.detail.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, entry] : metrics_) {
      char number[64];
      std::snprintf(number, sizeof(number), "%.17g", Finite(entry.value));
      json += first ? "" : ", ";
      first = false;
      json += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
              entry.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    double value = 0;
    std::string unit;
    std::string detail;
  };

  // JSON has no infinity: a latency made infinite by failures is reported
  // as 1e9 (far past any limit) and the run is already marked incorrect.
  static double Finite(double v) {
    if (v != v) return 0;
    if (v > 1e9) return 1e9;
    if (v < -1e9) return -1e9;
    return v;
  }

  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> checks_passed_;
  std::vector<std::string> check_failures_;
  int64_t check_failure_count_ = 0;
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
};

// Workload entry points (bulk.cc, serve_load.cc). They fill `report`, and
// return false on an error that leaves no result to print.
bool RunBulkExchange(const RunOptions& options, Report* report);
bool RunServeWorkload(const RunOptions& options, Report* report);

// The per-layer metrics BENCHMARK.json names, with their units (main.cc).
extern const std::vector<std::pair<std::string, std::string>> kLayerMetrics;

// Ends a traced run: collects the last spans, stops the tracer, notes a
// count, total and self time per span name, and writes the kept spans to
// <out_dir>/spans-<workload>.json.
void FinishTrace(const RunOptions& options, Report* report);

// Reports 0 for every per-layer metric the workload does not exercise
// (its layer does no work on this workload).
void FillUnexercisedLayers(Report* report);

// Peak resident memory of this process, in MB.
double PeakRssMb();
// CPUs this process may run on (sched_getaffinity), at least 1.
int Nproc();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
