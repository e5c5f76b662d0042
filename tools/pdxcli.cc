// pdxcli — command-line driver for the pdx peer data exchange engine.
//
// Usage:
//   pdxcli check   --setting FILE
//   pdxcli chase   --setting FILE --source FILE [--target FILE] [--threads N]
//                  [--dump-plans] [--repeat N]
//   pdxcli solve   --setting FILE --source FILE [--target FILE]
//                  [--solver auto|ctract|generic] [--minimize] [--diff]
//                  [--threads N]
//   pdxcli certain --setting FILE --source FILE [--target FILE]
//                  --query 'q(x) :- H(x,y).' [--threads N]
//   pdxcli repairs --setting FILE --source FILE --target FILE
//   pdxcli explain --setting FILE --source FILE [--target FILE]
//
// Every command also accepts --metrics-out FILE and --trace-out FILE
// ("-" = stdout): the former dumps the metrics registry in Prometheus text
// format after the run, the latter enables span tracing for the run's
// duration and writes Chrome trace_event JSON (load it in chrome://tracing
// or https://ui.perfetto.dev).
//
// Setting files use the [source]/[target]/[st]/[ts]/[t] format of
// pde/setting_file.h; instance files hold facts like "E(a,b).".

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/string_util.h"
#include "chase/chase.h"
#include "plan/compiler.h"
#include "hom/core.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "logic/parser.h"
#include "pde/analysis.h"
#include "pde/explain.h"
#include "pde/certain_answers.h"
#include "pde/ctract_solver.h"
#include "pde/data_exchange.h"
#include "pde/generic_solver.h"
#include "pde/minimize.h"
#include "pde/pdms.h"
#include "pde/repairs.h"
#include "relational/instance_diff.h"
#include "pde/setting_file.h"
#include "pde/solution.h"

namespace pdx {
namespace {

struct CliArgs {
  std::string command;
  std::map<std::string, std::string> flags;
};

StatusOr<CliArgs> ParseArgs(int argc, char** argv) {
  if (argc < 2) {
    return InvalidArgumentError("missing command");
  }
  CliArgs args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      return InvalidArgumentError(StrCat("expected --flag, got ", flag));
    }
    flag = flag.substr(2);
    if (flag == "minimize" || flag == "core" || flag == "diff" ||
        flag == "dump-plans") {
      args.flags[flag] = "true";
      continue;
    }
    if (i + 1 >= argc) {
      return InvalidArgumentError(StrCat("flag --", flag, " needs a value"));
    }
    args.flags[flag] = argv[++i];
  }
  return args;
}

// --metrics-out / --trace-out plumbing, applied uniformly to every
// command: tracing is switched on before the command body runs and the
// exports are written on the way out — also after failed runs, when the
// partial metrics are exactly what one wants to look at.
class ObsExports {
 public:
  explicit ObsExports(const CliArgs& args) {
    if (auto it = args.flags.find("metrics-out"); it != args.flags.end()) {
      metrics_path_ = it->second;
    }
    if (auto it = args.flags.find("trace-out"); it != args.flags.end()) {
      trace_path_ = it->second;
      // rusage=true: per-span thread CPU / context-switch deltas, so
      // shard skew in the trace distinguishes work imbalance from
      // scheduler preemption.
      obs::Tracer::Global().Enable(/*capacity=*/1 << 16, /*rusage=*/true);
    }
  }

  // Writes the requested exports; returns 1 if any write failed.
  int Write() {
    int rc = 0;
    if (!metrics_path_.empty()) {
      Status status = obs::WriteFileOrStdout(
          metrics_path_,
          obs::ExportPrometheus(obs::MetricsRegistry::Global().Snapshot()));
      if (!status.ok()) {
        std::cerr << status.ToString() << "\n";
        rc = 1;
      }
    }
    if (!trace_path_.empty()) {
      std::vector<obs::SpanRecord> spans = obs::Tracer::Global().Drain();
      uint64_t dropped = obs::Tracer::Global().dropped();
      obs::Tracer::Global().Disable();
      if (dropped > 0) {
        std::cerr << "warning: trace ring overflowed, " << dropped
                  << " span(s) dropped\n";
      }
      Status status =
          obs::WriteFileOrStdout(trace_path_, obs::ExportChromeTrace(spans));
      if (!status.ok()) {
        std::cerr << status.ToString() << "\n";
        rc = 1;
      }
    }
    return rc;
  }

 private:
  std::string metrics_path_;
  std::string trace_path_;
};

int ParseThreads(const CliArgs& args) {
  auto it = args.flags.find("threads");
  return it == args.flags.end() ? 1 : std::atoi(it->second.c_str());
}

StatusOr<PdeSetting> LoadSetting(const CliArgs& args, SymbolTable* symbols) {
  auto it = args.flags.find("setting");
  if (it == args.flags.end()) {
    return InvalidArgumentError("--setting FILE is required");
  }
  return LoadSettingFile(it->second, symbols);
}

StatusOr<Instance> LoadSide(const CliArgs& args, const char* flag,
                            const PdeSetting& setting, SymbolTable* symbols,
                            bool required) {
  auto it = args.flags.find(flag);
  if (it == args.flags.end()) {
    if (required) {
      return InvalidArgumentError(StrCat("--", flag, " FILE is required"));
    }
    return setting.EmptyInstance();
  }
  return LoadInstanceFile(it->second, setting.schema(), symbols);
}

int RunCheck(const CliArgs& args) {
  SymbolTable symbols;
  auto setting = LoadSetting(args, &symbols);
  if (!setting.ok()) {
    std::cerr << setting.status().ToString() << "\n";
    return 1;
  }
  std::cout << setting->ToString(symbols) << "\n\n";
  std::cout << "data exchange (Σ_ts empty): "
            << (setting->IsDataExchange() ? "yes" : "no") << "\n";
  std::cout << "target constraints: "
            << (setting->HasTargetConstraints() ? "yes" : "no")
            << " (tgds weakly acyclic: "
            << (setting->TargetTgdsWeaklyAcyclic() ? "yes" : "no") << ")\n";
  const CtractReport& report = setting->ctract_report();
  std::cout << "Definition 9: condition 1 " << (report.condition1 ? "✓" : "✗")
            << ", condition 2.1 " << (report.condition2_1 ? "✓" : "✗")
            << ", condition 2.2 " << (report.condition2_2 ? "✓" : "✗")
            << "\n";
  std::cout << "in C_tract (PTIME ExistsSolution guaranteed): "
            << (setting->InCtract() ? "yes" : "no") << "\n";
  for (const std::string& violation : report.violations) {
    std::cout << "  " << violation << "\n";
  }
  SettingAnalysis analysis = AnalyzeSetting(*setting, &symbols);
  std::cout << "chase growth (Σst ∪ Σt): "
            << (analysis.generating_sets_weakly_acyclic
                    ? StrCat("weakly acyclic, max rank ", analysis.max_rank)
                    : "not weakly acyclic")
            << "\n";
  if (analysis.implication_available) {
    if (analysis.redundant_dependencies.empty()) {
      std::cout << "no redundant dependencies\n";
    } else {
      std::cout << "redundant dependencies:\n";
      for (const std::string& note : analysis.redundant_dependencies) {
        std::cout << "  " << note << "\n";
      }
    }
  } else {
    std::cout << "(redundancy analysis unavailable: the combined tgd set is "
                 "not weakly acyclic or uses disjunction)\n";
  }
  std::cout << "\nPDMS view (Section 2):\n"
            << BuildPdms(*setting, symbols).ToString() << "\n";
  return 0;
}

int RunChase(const CliArgs& args) {
  SymbolTable symbols;
  auto setting = LoadSetting(args, &symbols);
  if (!setting.ok()) {
    std::cerr << setting.status().ToString() << "\n";
    return 1;
  }
  auto source = LoadSide(args, "source", *setting, &symbols, true);
  auto target = LoadSide(args, "target", *setting, &symbols, false);
  if (!source.ok() || !target.ok()) {
    std::cerr << (source.ok() ? target.status() : source.status()).ToString()
              << "\n";
    return 1;
  }
  Instance combined = setting->CombineInstances(*source, *target);
  ChaseOptions chase_options;
  chase_options.num_threads = ParseThreads(args);
  if (args.flags.count("dump-plans") > 0) {
    // Show exactly what the chase below will execute: the compiled plans
    // for Σ_st (this command chases with Σ_st only, no egds).
    auto compiled = plan::CompileSetting(setting->st_tgds(), {});
    std::cout << plan::DumpPlans(*compiled, setting->st_tgds(), {},
                                 setting->schema(), symbols)
              << "\n";
  }
  int repeat = 1;
  if (auto it = args.flags.find("repeat"); it != args.flags.end()) {
    repeat = std::atoi(it->second.c_str());
    if (repeat < 1) {
      std::cerr << "--repeat needs a positive count\n";
      return 2;
    }
  }
  // With --repeat N the same chase runs N times and the wall-time
  // min/median are reported: min is the least-noise estimate, the median
  // shows how contended the box was. Output facts come from the last run
  // (every run chases the same input, so they agree).
  std::vector<double> wall_ms;
  wall_ms.reserve(static_cast<size_t>(repeat));
  std::optional<ChaseResult> chased;
  for (int rep = 0; rep < repeat; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    ChaseResult result =
        Chase(combined, setting->st_tgds(), {}, &symbols, chase_options);
    auto t1 = std::chrono::steady_clock::now();
    if (result.outcome != ChaseOutcome::kSuccess) {
      std::cerr << "chase did not complete: " << result.failure << "\n";
      return 1;
    }
    wall_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    chased = std::move(result);
  }
  if (repeat > 1) {
    std::sort(wall_ms.begin(), wall_ms.end());
    std::cout << "# chase wall over " << repeat << " runs: min "
              << wall_ms.front() << " ms, median "
              << wall_ms[wall_ms.size() / 2] << " ms\n";
  }
  std::cout << "# J_can = chase of (I, J) with Σ_st (" << chased->steps
            << " steps, " << chased->nulls_created << " nulls)\n"
            << setting->TargetPart(chased->instance).ToString(symbols) << "\n";
  return 0;
}

int RunSolve(const CliArgs& args) {
  SymbolTable symbols;
  auto setting = LoadSetting(args, &symbols);
  if (!setting.ok()) {
    std::cerr << setting.status().ToString() << "\n";
    return 1;
  }
  auto source = LoadSide(args, "source", *setting, &symbols, true);
  auto target = LoadSide(args, "target", *setting, &symbols, false);
  if (!source.ok() || !target.ok()) {
    std::cerr << (source.ok() ? target.status() : source.status()).ToString()
              << "\n";
    return 1;
  }
  std::string solver = "auto";
  if (auto it = args.flags.find("solver"); it != args.flags.end()) {
    solver = it->second;
  }
  bool use_ctract;
  if (solver == "ctract") {
    use_ctract = true;
  } else if (solver == "generic") {
    use_ctract = false;
  } else if (solver == "auto") {
    // The Figure 3 algorithm is correct whenever condition 1 holds and
    // there are no target constraints; otherwise fall back to the search.
    use_ctract = !setting->HasTargetConstraints() &&
                 !setting->HasDisjunctiveTsTgds() &&
                 setting->ctract_report().theorem5_applicable();
  } else {
    std::cerr << "unknown --solver " << solver << "\n";
    return 2;
  }

  bool has_solution = false;
  std::optional<Instance> solution;
  if (use_ctract) {
    ChaseOptions chase_options;
    chase_options.num_threads = ParseThreads(args);
    auto result = CtractExistsSolution(*setting, *source, *target, &symbols,
                                       chase_options);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    has_solution = result->has_solution;
    solution = std::move(result->solution);
    std::cout << "# solver: ExistsSolution (Figure 3), blocks="
              << result->block_count
              << " max-block-nulls=" << result->max_block_nulls << "\n";
  } else {
    GenericSolverOptions solver_options;
    solver_options.num_threads = ParseThreads(args);
    auto result = GenericExistsSolution(*setting, *source, *target, &symbols,
                                        solver_options);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    if (result->outcome == SolveOutcome::kBudgetExhausted) {
      std::cerr << "search budget exhausted; result unknown\n";
      return 3;
    }
    has_solution = result->outcome == SolveOutcome::kSolutionFound;
    solution = std::move(result->solution);
    std::cout << "# solver: generic search, nodes="
              << result->nodes_explored << "\n";
  }

  if (!has_solution) {
    std::cout << "no solution\n";
    // Explain: which constraints fail if J is left as-is.
    SolutionCheck check =
        CheckSolution(*setting, *source, *target, *target, symbols);
    for (const std::string& violation : check.violations) {
      std::cout << "# " << violation << "\n";
    }
    return 0;
  }
  if (args.flags.count("core") > 0) {
    // The core of a solution is a solution (homomorphisms preserve all
    // constraints of Definition 2), with redundant null facts folded away.
    solution = ComputeCore(*solution);
  }
  if (args.flags.count("minimize") > 0) {
    auto minimized =
        MinimizeSolution(*setting, *source, *target, *solution, symbols);
    if (minimized.ok()) solution = std::move(minimized).value();
  }
  if (args.flags.count("diff") > 0) {
    InstanceDiff diff = DiffInstances(*target, *solution);
    std::cout << "exchange diff (solution vs J, "
              << diff.added.size() << " imported):\n"
              << DiffToString(diff, setting->schema(), symbols) << "\n";
    return 0;
  }
  std::cout << "solution (" << solution->fact_count() << " facts):\n"
            << solution->ToString(symbols) << "\n";
  return 0;
}

int RunCertain(const CliArgs& args) {
  SymbolTable symbols;
  auto setting = LoadSetting(args, &symbols);
  if (!setting.ok()) {
    std::cerr << setting.status().ToString() << "\n";
    return 1;
  }
  auto source = LoadSide(args, "source", *setting, &symbols, true);
  auto target = LoadSide(args, "target", *setting, &symbols, false);
  if (!source.ok() || !target.ok()) {
    std::cerr << (source.ok() ? target.status() : source.status()).ToString()
              << "\n";
    return 1;
  }
  auto query_it = args.flags.find("query");
  if (query_it == args.flags.end()) {
    std::cerr << "--query 'q(x) :- ...' is required\n";
    return 2;
  }
  auto query =
      ParseUnionQuery(query_it->second, setting->schema(), &symbols);
  if (!query.ok()) {
    std::cerr << query.status().ToString() << "\n";
    return 1;
  }
  GenericSolverOptions solver_options;
  solver_options.num_threads = ParseThreads(args);
  auto result = ComputeCertainAnswers(*setting, *source, *target, *query,
                                      &symbols, solver_options);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }
  if (result->no_solution) {
    std::cout << "# no solution exists; certainty is vacuous\n";
  }
  if (query->IsBoolean()) {
    std::cout << "certain(q) = " << (result->boolean_value ? "true" : "false")
              << "\n";
  } else {
    std::cout << "# " << result->answers.size() << " certain answers\n";
    for (const Tuple& t : result->answers) {
      std::cout << TupleToString(t, symbols) << "\n";
    }
  }
  return 0;
}

int RunRepairs(const CliArgs& args) {
  SymbolTable symbols;
  auto setting = LoadSetting(args, &symbols);
  if (!setting.ok()) {
    std::cerr << setting.status().ToString() << "\n";
    return 1;
  }
  auto source = LoadSide(args, "source", *setting, &symbols, true);
  auto target = LoadSide(args, "target", *setting, &symbols, true);
  if (!source.ok() || !target.ok()) {
    std::cerr << (source.ok() ? target.status() : source.status()).ToString()
              << "\n";
    return 1;
  }
  auto repairs = ComputeSubsetRepairs(*setting, *source, *target, &symbols);
  if (!repairs.ok()) {
    std::cerr << repairs.status().ToString() << "\n";
    return 1;
  }
  if (repairs->size() == 1 && (*repairs)[0].FactsEqual(*target)) {
    std::cout << "# (I, J) is solvable; J is its own unique repair\n";
  }
  std::cout << "# " << repairs->size() << " subset repair(s)\n";
  for (size_t i = 0; i < repairs->size(); ++i) {
    std::cout << "# repair " << i + 1 << " (" << (*repairs)[i].fact_count()
              << " facts)\n"
              << (*repairs)[i].ToString(symbols) << "\n";
  }
  return 0;
}

int RunExplain(const CliArgs& args) {
  SymbolTable symbols;
  auto setting = LoadSetting(args, &symbols);
  if (!setting.ok()) {
    std::cerr << setting.status().ToString() << "\n";
    return 1;
  }
  auto source = LoadSide(args, "source", *setting, &symbols, true);
  auto target = LoadSide(args, "target", *setting, &symbols, false);
  if (!source.ok() || !target.ok()) {
    std::cerr << (source.ok() ? target.status() : source.status()).ToString()
              << "\n";
    return 1;
  }
  // Prefer the target-side explanation; fall back to the source side when
  // the conflict does not involve J at all.
  auto target_conflict =
      FindMinimalTargetConflict(*setting, *source, *target, &symbols);
  if (target_conflict.ok()) {
    std::cout << "# minimal conflicting subset of J ("
              << target_conflict->fact_count() << " facts):\n"
              << target_conflict->ToString(symbols) << "\n";
    return 0;
  }
  auto source_conflict =
      FindMinimalSourceConflict(*setting, *source, *target, &symbols);
  if (source_conflict.ok()) {
    std::cout << "# the conflict is source-side; minimal conflicting subset "
                 "of I ("
              << source_conflict->fact_count() << " facts):\n"
              << source_conflict->ToString(symbols) << "\n";
    return 0;
  }
  std::cerr << source_conflict.status().ToString()
            << " (is (I, J) actually unsolvable?)\n";
  return 1;
}

int Dispatch(const CliArgs& args) {
  if (args.command == "check") return RunCheck(args);
  if (args.command == "chase") return RunChase(args);
  if (args.command == "solve") return RunSolve(args);
  if (args.command == "certain") return RunCertain(args);
  if (args.command == "repairs") return RunRepairs(args);
  if (args.command == "explain") return RunExplain(args);
  std::cerr << "unknown command " << args.command << "\n";
  return 2;
}

int Main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::cerr << args.status().ToString() << "\n"
              << "usage: pdxcli check|chase|solve|certain|repairs|explain "
                 "--setting FILE [--source FILE] [--target FILE] "
                 "[--solver auto|ctract|generic] [--query Q] "
                 "[--minimize] [--diff] [--threads N] "
                 "[--dump-plans] [--repeat N] "
                 "[--metrics-out FILE] [--trace-out FILE]\n";
    return 2;
  }
  ObsExports exports(*args);
  int rc = Dispatch(*args);
  int export_rc = exports.Write();
  return rc != 0 ? rc : export_rc;
}

}  // namespace
}  // namespace pdx

int main(int argc, char** argv) { return pdx::Main(argc, argv); }
