// The pdx benchmark runner. perfbench/run.py builds and runs it:
//
//   pdx_perfbench --out-dir DIR --workload NAME --seed N --seconds S
//                 --trace 0|1
//   pdx_perfbench --out-dir DIR --self-test
//
// Workloads: bulk_exchange (bulk.cc), serve_read_heavy and
// serve_write_churn (serve_load.cc). Every run first checks the statistics
// helpers, then measures, checks the program's outputs, and prints its
// metrics; the last line of standard output is the JSON result. See
// perfbench/README.md for what each metric means.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  return 1;
}

const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"relational.fingerprint_us", "us"},
    {"relational.parse_facts_per_s", "facts/s"},
    {"logic.parse_setting_ms", "ms"},
    {"plan.compile_ms", "ms"},
    {"chase.pipeline_s", "s"},
    {"chase.pipeline_steps", "steps"},
    {"chase.egd_s", "s"},
    {"chase.egd_merges", "merges"},
    {"chase.pipeline_nproc_s", "s"},
    {"chase.egd_nproc_s", "s"},
    {"chase.parallel_speedup.pipeline", "x"},
    {"chase.parallel_speedup.egd", "x"},
    {"chase.stream_batch_us.p50", "us"},
    {"chase.stream_batch_us.p99", "us"},
    {"chase.stream_steps_per_batch", "steps"},
    {"pde.ctract_s", "s"},
    {"hom.block_check_s", "s"},
    {"pde.exists_us", "us"},
    {"pde.certain_lb_us", "us"},
    {"serve.writes_per_batch", "writes/batch"},
    {"serve.queue_depth_max", "count"},
    {"serve.stream_fallbacks", "count"},
    {"serve.generations_per_s", "1/s"},
    {"serve.handle_us.ping", "us"},
    {"serve.handle_us.stats", "us"},
    {"serve.handle_us.contains", "us"},
    {"serve.handle_us.exists", "us"},
    {"serve.handle_us.certain", "us"},
    {"serve.handle_us.write", "us"},
    {"serve.handle_us.retract", "us"},
    {"serve.tenant_us.stats", "us"},
    {"serve.tenant_us.contains", "us"},
    {"serve.tenant_us.exists", "us"},
    {"serve.tenant_us.certain", "us"},
    {"serve.tenant_us.write", "us"},
    {"serve.tenant_us.retract", "us"},
    {"serve.wire_us", "us"},
    {"serve.exists_memo_hit_ratio", "ratio"},
    {"loadgen.lag_p99_ms", "ms"},
    {"loadgen.backlog_max", "count"},
    {"loadgen.threads", "count"},
    {"loadgen.nproc", "count"},
};

void FinishTrace(const RunOptions& options, Report* report) {
  CollectSpans();
  pdx::obs::Tracer::Global().Disable();
  int64_t collected = 0;
  for (const auto& [name, summary] : SpanSummary()) {
    collected += summary.count;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "span %s: n=%lld total %.3f ms self %.3f ms", name.c_str(),
                  static_cast<long long>(summary.count), summary.total_ns / 1e6,
                  summary.self_ns / 1e6);
    report->Note(line);
  }
  std::string path = options.out_dir + "/spans-" + options.workload + ".json";
  int64_t written = WriteSpans(path);
  report->Note(std::to_string(collected) + " spans collected, " +
               std::to_string(DroppedSpans()) + " overwritten in full rings; " +
               (written < 0 ? "cannot write " + path
                            : std::to_string(written) + " written to " + path));
}

void FillUnexercisedLayers(Report* report) {
  for (const auto& [name, unit] : kLayerMetrics) {
    if (!report->Has(name)) {
      report->Metric(name, 0, unit, "layer not exercised by this workload");
    }
  }
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: pdx_perfbench [--out-dir DIR] --workload "
               "bulk_exchange|serve_read_heavy|serve_write_churn --seed N "
               "--seconds S --trace 0|1\n"
               "       pdx_perfbench --self-test\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }

  std::string stats_failure = RunStatsSelfTests();
  if (!stats_failure.empty()) {
    std::fprintf(stderr, "%s\n", stats_failure.c_str());
    return 1;
  }
  if (self_test) {
    std::printf("stats self-tests passed\n");
    return 0;
  }
  if (options.seconds <= 0) return Usage();

  Report report;
  report.CheckPassed("statistics helper self-tests");
  bool ran = false;
  if (options.workload == "bulk_exchange") {
    ran = RunBulkExchange(options, &report);
  } else if (options.workload == "serve_read_heavy" ||
             options.workload == "serve_write_churn") {
    ran = RunServeWorkload(options, &report);
  } else {
    return Usage();
  }
  if (!ran) {
    // No result: say why on stderr, where the JSON line cannot be mistaken
    // for one.
    std::fflush(stdout);
    int saved = dup(1);
    dup2(2, 1);
    report.Print();
    std::fflush(stdout);
    dup2(saved, 1);
    close(saved);
    return 1;
  }
  report.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
