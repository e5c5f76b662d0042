// bulk_exchange: offline peer data exchange at 1 chase thread, the default
// of pdxcli and pdxd. One pass runs three jobs on freshly parsed text:
//
//   pipeline  parse + Chase of the join+existential pipeline
//             (E∘E -> H, H -> ∃w F) over 100 000 edges (out-degree 2);
//   egd       parse + Chase of the FD/egd-heavy shape (one existential
//             shared by two head atoms, two key egds) over 3 000 edges;
//   ctract    parse + CtractExistsSolution (Figure 3) on a genomics (I, J)
//             of about 10^5 facts whose verdict is planted true.
//
// Checks: each chase result satisfies its dependencies (SatisfiesAll), its
// steps and fact count repeat exactly across passes, and the ctract verdict
// equals the planted one. A small (I, J) with one unbacked annotation, run
// during set-up, must come back false.
//
// A traced run records a span around every call into pdx and, after its
// timed passes, times the layers the passes do not call on their own
// (CanonicalFingerprint, the certain-answer lower bound, the chase at
// nproc threads).

#include <cstdio>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pde/certain_answers.h"
#include "pde/ctract_solver.h"
#include "pde/setting_file.h"
#include "plan/compiler.h"
#include "logic/parser.h"
#include "relational/instance_io.h"
#include "inputs.h"
#include "report.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

constexpr int kPipelineNodes = 50'000;
constexpr int kPipelineOutDegree = 2;   // 100 000 edges
constexpr int kEgdNodes = 1'000;
constexpr int kEgdOutDegree = 3;        // 3 000 edges
constexpr int kProteins = 16'000;
constexpr int kAnnotationsPerProtein = 2;
// Set-ups before the first pass; one more follows every pass, so that the
// set-up median spans the whole run rather than its first half second.
constexpr int kSetupsBefore = 5;
constexpr int kMinPasses = 3;

struct BulkInputs {
  std::string pipeline_edges;
  std::string egd_edges;
  std::string genomics_source;
  std::string genomics_target;
  std::string certain_query;
};

BulkInputs MakeInputs(uint64_t seed) {
  BulkInputs inputs;
  inputs.pipeline_edges =
      EdgeFacts(seed * 3 + 1, kPipelineNodes, kPipelineOutDegree);
  inputs.egd_edges = EdgeFacts(seed * 3 + 2, kEgdNodes, kEgdOutDegree);
  std::vector<Protein> proteins =
      MakeProteins(seed * 3 + 3, kProteins, kAnnotationsPerProtein, "P");
  for (const Protein& protein : proteins) {
    inputs.genomics_source += ProteinSourceFacts(protein);
    inputs.genomics_target += ProteinTargetFacts(protein);
  }
  inputs.certain_query =
      "q(g) :- Annotation('" + proteins[proteins.size() / 2].acc + "', g, e).";
  return inputs;
}

struct ChaseJob {
  bool ok = false;
  std::string error;
  double wall_s = 0;    // parse + chase
  double chase_s = 0;   // chase alone
  int64_t parsed = 0;   // facts parsed
  double parse_s = 0;
  int64_t steps = 0;
  int64_t facts = 0;    // resolved facts of the chased instance
  int64_t merges = 0;
};

std::vector<pdx::Tgd> GeneratingTgds(const pdx::PdeSetting& setting) {
  std::vector<pdx::Tgd> tgds = setting.st_tgds();
  tgds.insert(tgds.end(), setting.target_tgds().begin(),
              setting.target_tgds().end());
  return tgds;
}

pdx::ChaseOptions ChaseOpts(int threads) {
  pdx::ChaseOptions options;
  options.num_threads = threads;
  options.max_steps = 50'000'000;
  return options;
}

ChaseJob RunChaseJob(const std::string& setting_text, const std::string& facts,
                     int threads, const char* span_name) {
  static pdx::obs::Counter egd_merges =
      pdx::obs::MetricsRegistry::Global().GetCounter(
          "pdx_chase_egd_merges_total");
  ChaseJob job;
  int64_t t0 = NowNs();
  pdx::SymbolTable symbols;
  pdx::StatusOr<pdx::PdeSetting> setting = [&] {
    pdx::obs::Span span("logic.parse_setting");
    return pdx::ParseSettingFile(setting_text, &symbols);
  }();
  if (!setting.ok()) {
    job.error = setting.status().ToString();
    return job;
  }
  int64_t parse_start = NowNs();
  pdx::StatusOr<pdx::Instance> start = [&] {
    pdx::obs::Span span("relational.parse");
    return pdx::ParseInstance(facts, setting->schema(), &symbols);
  }();
  job.parse_s = (NowNs() - parse_start) / 1e9;
  if (!start.ok()) {
    job.error = start.status().ToString();
    return job;
  }
  job.parsed = static_cast<int64_t>(start->fact_count());
  std::vector<pdx::Tgd> tgds = GeneratingTgds(*setting);
  int64_t merges_before = egd_merges.Value();
  int64_t chase_start = NowNs();
  pdx::ChaseResult result = [&] {
    pdx::obs::Span span(span_name);
    return pdx::Chase(*start, tgds, setting->target_egds(), &symbols,
                      ChaseOpts(threads));
  }();
  int64_t t1 = NowNs();
  job.chase_s = (t1 - chase_start) / 1e9;
  job.wall_s = (t1 - t0) / 1e9;
  job.merges = egd_merges.Value() - merges_before;
  if (result.outcome != pdx::ChaseOutcome::kSuccess) {
    job.error = "chase did not succeed: " + result.failure;
    return job;
  }
  job.steps = result.steps;
  job.facts = static_cast<int64_t>(result.instance.ResolvedFactCount());
  pdx::DependencySet deps;
  deps.tgds = tgds;
  deps.egds = setting->target_egds();
  bool satisfied = [&] {
    pdx::obs::Span span("chase.check");
    return pdx::SatisfiesAll(result.instance, deps);
  }();
  if (!satisfied) {
    job.error = "chase result violates its dependencies";
    return job;
  }
  job.ok = true;
  return job;
}

struct CtractJob {
  bool ok = false;
  std::string error;
  bool verdict = false;
  double wall_s = 0;       // parse + solve
  double solve_s = 0;      // CtractExistsSolution alone
  int64_t parsed = 0;
  double parse_s = 0;
};

CtractJob RunCtractJob(const std::string& setting_text,
                       const std::string& source_text,
                       const std::string& target_text) {
  CtractJob job;
  int64_t t0 = NowNs();
  pdx::SymbolTable symbols;
  pdx::StatusOr<pdx::PdeSetting> setting = [&] {
    pdx::obs::Span span("logic.parse_setting");
    return pdx::ParseSettingFile(setting_text, &symbols);
  }();
  if (!setting.ok()) {
    job.error = setting.status().ToString();
    return job;
  }
  int64_t parse_start = NowNs();
  pdx::StatusOr<pdx::Instance> source = [&] {
    pdx::obs::Span span("relational.parse");
    return pdx::ParseInstance(source_text, setting->schema(), &symbols);
  }();
  pdx::StatusOr<pdx::Instance> target = [&] {
    pdx::obs::Span span("relational.parse");
    return pdx::ParseInstance(target_text, setting->schema(), &symbols);
  }();
  job.parse_s = (NowNs() - parse_start) / 1e9;
  if (!source.ok() || !target.ok()) {
    job.error = "cannot parse the genomics instances";
    return job;
  }
  job.parsed =
      static_cast<int64_t>(source->fact_count() + target->fact_count());
  int64_t solve_start = NowNs();
  pdx::StatusOr<pdx::CtractSolveResult> result = [&] {
    pdx::obs::Span span("pde.ctract");
    return pdx::CtractExistsSolution(*setting, *source, *target, &symbols,
                                     ChaseOpts(1));
  }();
  int64_t t1 = NowNs();
  job.solve_s = (t1 - solve_start) / 1e9;
  job.wall_s = (t1 - t0) / 1e9;
  if (!result.ok()) {
    job.error = result.status().ToString();
    return job;
  }
  job.verdict = result->has_solution;
  job.ok = true;
  return job;
}

// One set-up: generate the inputs, parse each setting and compile it cold,
// and run the negative control. Returns the wall time.
struct SetupResult {
  double wall_s = 0;
  double parse_setting_ms = 0;  // per setting, mean of the three
  double compile_ms = 0;        // per setting, mean of the three
  bool control_ok = false;
};

SetupResult RunSetup(uint64_t seed, BulkInputs* inputs) {
  SetupResult result;
  int64_t t0 = NowNs();
  RequestSpan setup_span("bulk.setup");
  {
    pdx::obs::Span span("inputs.generate");
    *inputs = MakeInputs(seed);
  }
  double parse_ns = 0, compile_ns = 0;
  for (const std::string& text :
       {PipelineSetting(), EgdSetting(), GenomicsSetting()}) {
    pdx::SymbolTable symbols;
    int64_t p0 = NowNs();
    pdx::StatusOr<pdx::PdeSetting> setting = [&] {
      pdx::obs::Span span("logic.parse_setting");
      return pdx::ParseSettingFile(text, &symbols);
    }();
    int64_t p1 = NowNs();
    if (!setting.ok()) return result;
    std::vector<pdx::Tgd> tgds = GeneratingTgds(*setting);
    {
      pdx::obs::Span span("plan.compile");
      auto compiled = pdx::plan::CompileSetting(tgds, setting->target_egds());
      if (compiled == nullptr) return result;
    }
    parse_ns += p1 - p0;
    compile_ns += NowNs() - p1;
  }
  result.parse_setting_ms = parse_ns / 3 / 1e6;
  result.compile_ms = compile_ns / 3 / 1e6;

  // Negative control: one target annotation the source does not back.
  std::vector<Protein> small = MakeProteins(seed, 20, 2, "C");
  std::string source, target;
  for (const Protein& protein : small) {
    source += ProteinSourceFacts(protein);
    target += ProteinTargetFacts(protein);
  }
  target += "Annotation(C_unbacked, GO_1, IEA).\n";
  CtractJob control = RunCtractJob(GenomicsSetting(), source, target);
  result.control_ok = control.ok && !control.verdict;
  result.wall_s = (NowNs() - t0) / 1e9;
  return result;
}

// The end-to-end figures of one measured phase.
struct PhaseFigures {
  double setup_s = 0;
  int setups = 0;
  double peak_rss_mb = 0;
  double exchange_facts_per_s = 0;
  double exists_solve_s = 0;
  Samples::Point read_p50, read_p99, write_p50, write_p99;
  double sustained_qps = 0;
  int passes = 0;
  int64_t jobs = 0;
};

struct PassLog {
  std::vector<ChaseJob> pipeline, egd;
  std::vector<CtractJob> ctract;
  // The solver's own ctract.block_check spans summed per pass (traced
  // runs only).
  std::vector<double> block_check_s;
};

// One set-up, timed; a failed negative control goes to `report`.
void TimeSetup(uint64_t seed, BulkInputs* inputs, Report* report,
               std::vector<SetupResult>* setups) {
  SetupResult setup = RunSetup(seed, inputs);
  CollectSpans();
  if (!setup.control_ok) {
    report->CheckFailed(
        "negative control: ctract must reject an unbacked annotation");
  }
  setups->push_back(setup);
}

// Runs passes for `seconds` (at least kMinPasses), each followed by one
// set-up whose time is left out of the pass figures. Returns false when a
// job errs; output checks go to `report`.
bool RunPasses(uint64_t seed, const BulkInputs& inputs, double seconds,
               Report* report, PassLog* passes, PhaseFigures* figures,
               std::vector<SetupResult>* setups) {
  Samples reads, writes;
  std::vector<double> facts_per_s, exists_s;
  int64_t setup_ns = 0;
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  int pass = 0;
  while (pass < kMinPasses || NowNs() < deadline) {
    ChaseJob pipeline, egd;
    CtractJob ctract;
    {
      RequestSpan pass_span("bulk.pass");
      pipeline = RunChaseJob(PipelineSetting(), inputs.pipeline_edges, 1,
                             "chase.pipeline");
      egd = RunChaseJob(EgdSetting(), inputs.egd_edges, 1, "chase.egd");
      ctract = RunCtractJob(GenomicsSetting(), inputs.genomics_source,
                            inputs.genomics_target);
    }
    for (double s :
         SecondsUnder(CollectSpans(), "bulk.pass", "ctract.block_check")) {
      passes->block_check_s.push_back(s);
    }
    report->CountOperations(3, (pipeline.ok ? 0 : 1) + (egd.ok ? 0 : 1) +
                                   (ctract.ok ? 0 : 1));
    for (const std::string& error : {pipeline.error, egd.error, ctract.error}) {
      if (!error.empty()) report->CheckFailed("bulk job: " + error);
    }
    if (!pipeline.ok || !egd.ok || !ctract.ok) return false;
    if (!ctract.verdict) {
      report->CheckFailed("ctract verdict false, planted true");
    }
    const std::vector<ChaseJob>* firsts[] = {&passes->pipeline, &passes->egd};
    const ChaseJob* nows[] = {&pipeline, &egd};
    for (int j = 0; j < 2; ++j) {
      if (!firsts[j]->empty() && (firsts[j]->front().steps != nows[j]->steps ||
                                  firsts[j]->front().facts != nows[j]->facts)) {
        report->CheckFailed("chase steps/facts differ across passes");
      }
    }
    double exchange_s = pipeline.wall_s + egd.wall_s;
    facts_per_s.push_back((pipeline.facts + egd.facts) / exchange_s);
    exists_s.push_back(ctract.wall_s);
    writes.Add(exchange_s * 1e3);
    reads.Add(ctract.wall_s * 1e3);
    passes->pipeline.push_back(pipeline);
    passes->egd.push_back(egd);
    passes->ctract.push_back(ctract);
    ++pass;
    int64_t s0 = NowNs();
    {
      // Its own inputs, freed at once, so the passes' peak memory stays
      // what it was without it.
      BulkInputs spare;
      TimeSetup(seed, &spare, report, setups);
    }
    setup_ns += NowNs() - s0;
  }
  double wall_s = (NowNs() - start - setup_ns) / 1e9;
  figures->passes = pass;
  figures->jobs = 3 * pass;
  figures->exchange_facts_per_s = MedianOf(facts_per_s);
  figures->exists_solve_s = MedianOf(exists_s);
  figures->read_p50 = reads.Median();
  figures->read_p99 = reads.Tail(99);
  figures->write_p50 = writes.Median();
  figures->write_p99 = writes.Tail(99);
  figures->sustained_qps = figures->jobs / wall_s;
  return true;
}

void ReportFigures(const PhaseFigures& f, Report* report) {
  char detail[256];
  report->Metric("setup_s", f.setup_s, "s",
                 "median of " + std::to_string(f.setups) +
                     " set-ups (" + std::to_string(kSetupsBefore) +
                     " before the passes, one after each): input "
                     "generation, setting parse, cold plan compile, negative "
                     "control");
  report->Metric("peak_rss_mb", f.peak_rss_mb, "MB", "getrusage ru_maxrss");
  std::snprintf(detail, sizeof(detail),
                "median over %d passes of (pipeline + egd result facts) / "
                "(their parse + chase wall), 1 thread",
                f.passes);
  report->Metric("exchange_facts_per_s", f.exchange_facts_per_s, "facts/s",
                 detail);
  std::snprintf(detail, sizeof(detail),
                "median over %d passes of parse + CtractExistsSolution",
                f.passes);
  report->Metric("exists_solve_s", f.exists_solve_s, "s", detail);
  report->Metric("read_p50_ms", f.read_p50.value, "ms",
                 "read = ctract existence check job: " +
                     Samples::Describe(f.read_p50, "ms"));
  report->Metric("read_p99_ms", f.read_p99.value, "ms",
                 "read = ctract existence check job: " +
                     Samples::Describe(f.read_p99, "ms"));
  report->Metric("write_p50_ms", f.write_p50.value, "ms",
                 "write = one exchange (pipeline + egd parse + chase): " +
                     Samples::Describe(f.write_p50, "ms"));
  report->Metric("write_p99_ms", f.write_p99.value, "ms",
                 "write = one exchange (pipeline + egd parse + chase): " +
                     Samples::Describe(f.write_p99, "ms"));
  std::snprintf(detail, sizeof(detail),
                "closed loop, one job at a time: %lld jobs completed / "
                "measured wall",
                static_cast<long long>(f.jobs));
  report->Metric("sustained_qps", f.sustained_qps, "1/s", detail);
}

bool RunPhase(uint64_t seed, double seconds, Report* report, PassLog* passes,
              PhaseFigures* figures, std::vector<SetupResult>* setups) {
  BulkInputs inputs;
  for (int i = 0; i < kSetupsBefore; ++i) {
    TimeSetup(seed, &inputs, report, setups);
  }
  if (!RunPasses(seed, inputs, seconds, report, passes, figures, setups)) {
    return false;
  }
  std::vector<double> setup_s;
  for (const SetupResult& setup : *setups) setup_s.push_back(setup.wall_s);
  figures->setup_s = MedianOf(setup_s);
  figures->setups = static_cast<int>(setups->size());
  figures->peak_rss_mb = PeakRssMb();
  return true;
}

double MedianField(const std::vector<ChaseJob>& jobs,
                   double ChaseJob::*field) {
  std::vector<double> values;
  for (const ChaseJob& job : jobs) values.push_back(job.*field);
  return MedianOf(values);
}

// Layers the timed passes do not call on their own, timed after them:
// CanonicalFingerprint of the pipeline result and the certain-answer lower
// bound on the genomics (I, J). Each is the median of kProbeRepeats calls.
constexpr int kProbeRepeats = 5;

void ProbeLayers(const BulkInputs& inputs, Report* report) {
  RequestSpan probe_span("bulk.probe");
  pdx::SymbolTable symbols;
  auto pipeline = pdx::ParseSettingFile(PipelineSetting(), &symbols);
  auto genomics = pdx::ParseSettingFile(GenomicsSetting(), &symbols);
  if (!pipeline.ok() || !genomics.ok()) {
    report->CheckFailed("layer probe: cannot parse the settings");
    return;
  }
  auto edges = pdx::ParseInstance(inputs.pipeline_edges, pipeline->schema(),
                                  &symbols);
  if (!edges.ok()) {
    report->CheckFailed("layer probe: cannot parse the pipeline edges");
    return;
  }
  pdx::ChaseResult chased = pdx::Chase(*edges, GeneratingTgds(*pipeline),
                                       pipeline->target_egds(), &symbols,
                                       ChaseOpts(1));
  std::vector<double> fingerprint_us;
  for (int i = 0; i < kProbeRepeats; ++i) {
    pdx::obs::Span span("relational.fingerprint");
    int64_t t0 = NowNs();
    volatile uint64_t fingerprint = chased.instance.CanonicalFingerprint();
    (void)fingerprint;
    fingerprint_us.push_back((NowNs() - t0) / 1e3);
  }
  report->Metric("relational.fingerprint_us", MedianOf(fingerprint_us), "us",
                 "CanonicalFingerprint of the pipeline result (" +
                     std::to_string(chased.instance.fact_count()) +
                     " facts), median of " + std::to_string(kProbeRepeats));

  auto source = pdx::ParseInstance(inputs.genomics_source, genomics->schema(),
                                   &symbols);
  auto target = pdx::ParseInstance(inputs.genomics_target, genomics->schema(),
                                   &symbols);
  if (!source.ok() || !target.ok()) {
    report->CheckFailed("layer probe: cannot parse the genomics job");
    return;
  }
  auto query =
      pdx::ParseUnionQuery(inputs.certain_query, genomics->schema(), &symbols);
  if (!query.ok()) {
    report->CheckFailed("layer probe: cannot parse " + inputs.certain_query);
    return;
  }
  std::vector<double> certain_us;
  for (int i = 0; i < kProbeRepeats; ++i) {
    pdx::obs::Span span("pde.certain_lb");
    int64_t t0 = NowNs();
    auto answers = pdx::ComputeCertainAnswersLowerBound(*genomics, *source,
                                                        *target, *query,
                                                        &symbols);
    certain_us.push_back((NowNs() - t0) / 1e3);
    if (!answers.ok() ||
        static_cast<int>(answers->answers.size()) != kAnnotationsPerProtein) {
      report->CheckFailed("certain lower bound did not return the protein's "
                          "annotations");
      return;
    }
  }
  report->Metric("pde.certain_lb_us", MedianOf(certain_us), "us",
                 "ComputeCertainAnswersLowerBound on the genomics (I, J), "
                 "median of " + std::to_string(kProbeRepeats));
}

void ReportLayers(const BulkInputs& inputs, const PassLog& passes,
                  const std::vector<SetupResult>& setups, Report* report) {
  char detail[256];
  int n = static_cast<int>(passes.pipeline.size());
  std::snprintf(detail, sizeof(detail), "median of %d traced passes", n);
  report->Metric("chase.pipeline_s",
                 MedianField(passes.pipeline, &ChaseJob::chase_s), "s", detail);
  report->Metric("chase.pipeline_steps",
                 static_cast<double>(passes.pipeline.front().steps), "steps",
                 "identical on every pass (checked)");
  report->Metric("chase.egd_s", MedianField(passes.egd, &ChaseJob::chase_s),
                 "s", detail);
  report->Metric("chase.egd_merges",
                 static_cast<double>(passes.egd.front().merges), "merges",
                 "pdx_chase_egd_merges_total delta of one egd chase");

  int64_t parsed = 0;
  double parse_s = 0;
  std::vector<double> ctract_s;
  for (const ChaseJob& job : passes.pipeline) parsed += job.parsed, parse_s += job.parse_s;
  for (const ChaseJob& job : passes.egd) parsed += job.parsed, parse_s += job.parse_s;
  for (const CtractJob& job : passes.ctract) {
    parsed += job.parsed;
    parse_s += job.parse_s;
    ctract_s.push_back(job.solve_s);
  }
  std::snprintf(detail, sizeof(detail),
                "ParseInstance: %lld facts in %.3f s over %d passes",
                static_cast<long long>(parsed), parse_s, n);
  report->Metric("relational.parse_facts_per_s", parsed / parse_s, "facts/s",
                 detail);
  std::snprintf(detail, sizeof(detail), "median of %d traced passes", n);
  report->Metric("pde.ctract_s", MedianOf(ctract_s), "s", detail);
  report->Metric("pde.exists_us", MedianOf(ctract_s) * 1e6, "us",
                 std::string("CtractExistsSolution on the genomics job, ") +
                     detail);
  report->Metric("hom.block_check_s", MedianOf(passes.block_check_s), "s",
                 "sum of the solver's ctract.block_check spans per pass, "
                 "median of " + std::to_string(passes.block_check_s.size()) +
                     " passes");

  std::vector<double> parse_ms, compile_ms;
  for (const SetupResult& setup : setups) {
    parse_ms.push_back(setup.parse_setting_ms);
    compile_ms.push_back(setup.compile_ms);
  }
  report->Metric("logic.parse_setting_ms", MedianOf(parse_ms), "ms",
                 "ParseSettingFile, mean of the 3 settings, median of " +
                     std::to_string(setups.size()) + " set-ups");
  report->Metric("plan.compile_ms", MedianOf(compile_ms), "ms",
                 "cold CompileSetting, mean of the 3 settings, median of " +
                     std::to_string(setups.size()) + " set-ups");

  ProbeLayers(inputs, report);

  // 1 thread versus nproc threads on the same input, both stated.
  int threads = Nproc();
  ChaseJob pipeline_n = RunChaseJob(PipelineSetting(), inputs.pipeline_edges,
                                    threads, "chase.pipeline_nproc");
  ChaseJob egd_n =
      RunChaseJob(EgdSetting(), inputs.egd_edges, threads, "chase.egd_nproc");
  if (!pipeline_n.ok || !egd_n.ok ||
      pipeline_n.facts != passes.pipeline.front().facts ||
      egd_n.facts != passes.egd.front().facts) {
    report->CheckFailed("the nproc-thread chase differs from 1 thread");
  }
  double pipeline_1 = MedianField(passes.pipeline, &ChaseJob::chase_s);
  double egd_1 = MedianField(passes.egd, &ChaseJob::chase_s);
  std::snprintf(detail, sizeof(detail), "%d threads, one run", threads);
  report->Metric("chase.pipeline_nproc_s", pipeline_n.chase_s, "s", detail);
  report->Metric("chase.egd_nproc_s", egd_n.chase_s, "s", detail);
  std::snprintf(detail, sizeof(detail), "1-thread %.4f s / %d-thread %.4f s",
                pipeline_1, threads, pipeline_n.chase_s);
  report->Metric("chase.parallel_speedup.pipeline",
                 pipeline_1 / pipeline_n.chase_s, "x", detail);
  std::snprintf(detail, sizeof(detail), "1-thread %.4f s / %d-thread %.4f s",
                egd_1, threads, egd_n.chase_s);
  report->Metric("chase.parallel_speedup.egd", egd_1 / egd_n.chase_s, "x",
                 detail);
}

}  // namespace

bool RunBulkExchange(const RunOptions& options, Report* report) {
  report->Note("bulk_exchange: pipeline " +
               std::to_string(kPipelineNodes * kPipelineOutDegree) +
               " edges / egd " + std::to_string(kEgdNodes * kEgdOutDegree) +
               " edges / ctract " +
               std::to_string(kProteins * (2 + 2 * kAnnotationsPerProtein)) +
               " facts, 1 chase thread, nproc " + std::to_string(Nproc()));
  // A traced run measures the same phase with spans on, then the layers.
  if (options.trace) EnableSpans();
  PassLog passes;
  PhaseFigures figures;
  std::vector<SetupResult> setups;
  if (!RunPhase(options.seed, options.seconds, report, &passes, &figures,
                &setups)) {
    return false;
  }
  report->CheckPassed("every chase result satisfies its dependencies; steps "
                      "and facts repeat across passes");
  report->CheckPassed("ctract verdicts equal the planted one");
  ReportFigures(figures, report);
  if (options.trace) {
    ReportLayers(MakeInputs(options.seed), passes, setups, report);
    FinishTrace(options, report);
    FillUnexercisedLayers(report);
  }
  return true;
}

}  // namespace perfbench
