// Chase engine A/B bench: runs the same workloads through the naive
// full-rescan restricted chase (Substitute-based egd steps) and the
// delta-driven one (union-find egd merges in the value layer), and writes
// the results as machine-readable JSON (BENCH_chase.json) so the speedup
// is trackable across commits.
//
// Per workload and strategy it reports wall time (best of `kRepeats`),
// chase steps, resolved result facts, and derived facts per second; per
// workload it reports the naive/delta speedup. A second axis
// (compiled_vs_interpreted) A/Bs the dependency compiler of plan/ against
// the retained interpreter at 1 thread on the largest workloads. Strategies are also
// cross-checked for resolved-fingerprint agreement, so a run doubles as a
// coarse correctness gate. The egd_heavy workloads are the A/B for the
// union-find value layer: every invented null is merged by a key egd, so
// the naive engine pays a relation rebuild per merge while the delta
// engine pays one union plus re-examination of the dirty tuples.
//
// A third axis (bytecode_vs_tree) A/Bs the match-loop bytecode VM of
// hom/match_vm.h against the recursive tree executor it replaced, on the
// compiled delta strategy at 1 thread — step- and fingerprint-cross-checked
// like compiled_vs_interpreted.
//
// Usage: bench_chase [output.json]   (default BENCH_chase.json in cwd)
//        bench_chase --quick         (perf smoke gate: pipeline_n512 under
//                                     both executors; exits nonzero if the
//                                     VM is slower than the conservative
//                                     facts/sec floor or the executors
//                                     disagree)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "chase/chase.h"
#include "hom/instance_hom.h"
#include "hom/match_vm.h"
#include "logic/parser.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "workload/random.h"

namespace pdx {
namespace {

constexpr int kRepeats = 5;

struct StrategyStats {
  double wall_ms = 0;
  int64_t steps = 0;
  int64_t result_facts = 0;
  double facts_per_sec = 0;
  uint64_t fingerprint = 0;
  // Fingerprint after canonical null renumbering (computed outside the
  // timed region): the cross-check for runs whose enumeration orders —
  // hence null identities — differ (compiled vs interpreted), which must
  // produce the same instance up to a bijective null renaming.
  uint64_t canonical_fingerprint = 0;
};

struct WorkloadResult {
  std::string name;
  int64_t input_facts = 0;
  StrategyStats naive;
  StrategyStats delta;
};

// One num_threads point of the thread-scaling dimension (delta strategy
// only; the naive engine has no parallel path).
struct ThreadPoint {
  int threads = 0;
  double wall_ms = 0;
  int64_t steps = 0;
  double speedup_vs_1t = 0;
};

struct ThreadScalingResult {
  std::string name;
  int64_t input_facts = 0;
  std::vector<ThreadPoint> points;
};

struct BenchContext {
  Schema schema;
  SymbolTable symbols;
  std::vector<Tgd> pipeline_tgds;
  std::vector<Tgd> existential_tgds;
  std::vector<Egd> key_egds;
  std::vector<Tgd> egd_heavy_tgds;
  std::vector<Egd> egd_heavy_egds;

  BenchContext() {
    PDX_CHECK(schema.AddRelation("E", 2).ok());
    PDX_CHECK(schema.AddRelation("H", 2).ok());
    PDX_CHECK(schema.AddRelation("F", 2).ok());
    auto deps = ParseDependencies(
        "E(x,z) & E(z,y) -> H(x,y)."
        "H(x,y) -> exists w: F(y,w).",
        schema, &symbols);
    PDX_CHECK(deps.ok());
    pipeline_tgds = std::move(deps).value().tgds;
    auto deps_ex = ParseDependencies("E(x,y) -> exists z: H(x,z). "
                                     "H(x,y) -> exists w: F(y,w).",
                                     schema, &symbols);
    PDX_CHECK(deps_ex.ok());
    existential_tgds = std::move(deps_ex).value().tgds;
    auto deps2 =
        ParseDependencies("H(x,y) & H(x,z) -> y = z.", schema, &symbols);
    PDX_CHECK(deps2.ok());
    key_egds = std::move(deps2).value().egds;
    // Egd-heavy: the existential shared across the two head atoms forces
    // one fresh null per E-edge (no single H-fact can satisfy two edges'
    // triggers), and the two key egds then merge them in cascades — an
    // H-merge on x dirties the F-facts of x's neighbors and vice versa —
    // until each connected component keeps one null. Nearly every chase
    // step is a merge, which the naive engine pays as a Substitute
    // rebuild of H and F.
    auto deps3 = ParseDependencies(
        "E(x,y) -> exists z: H(x,z) & F(y,z).", schema, &symbols);
    PDX_CHECK(deps3.ok());
    egd_heavy_tgds = std::move(deps3).value().tgds;
    auto deps4 = ParseDependencies(
        "H(x,y) & H(x,z) -> y = z. F(x,y) & F(x,z) -> y = z.", schema,
        &symbols);
    PDX_CHECK(deps4.ok());
    egd_heavy_egds = std::move(deps4).value().egds;
  }

  // A random E-graph with `n` nodes and ~`edges_per_node * n` edges.
  Instance RandomEdges(int n, int edges_per_node, uint64_t seed) {
    Rng rng(seed);
    Instance instance(&schema);
    for (int i = 0; i < edges_per_node * n; ++i) {
      Value u =
          symbols.InternConstant("n" + std::to_string(rng.UniformInt(n)));
      Value v =
          symbols.InternConstant("n" + std::to_string(rng.UniformInt(n)));
      instance.AddFact(0, {u, v});
    }
    return instance;
  }
};

StrategyStats RunOne(SymbolTable* symbols, const Instance& start,
                     const std::vector<Tgd>& tgds,
                     const std::vector<Egd>& egds, ChaseStrategy strategy,
                     int num_threads = 1, bool compile_plans = true) {
  ChaseOptions options;
  options.strategy = strategy;
  options.num_threads = num_threads;
  options.compile_plans = compile_plans;
  options.max_steps = 10'000'000;
  StrategyStats stats;
  // The metrics registry is the authoritative step count: the JSON below
  // reports the registry delta of pdx_chase_steps_total around each run,
  // pinned equal to the engine's own count, so BENCH_chase.json and a
  // --metrics-out dump can never disagree. (A PDX_OBS_NOOP build has no
  // registry and falls back to the engine's count.)
  static obs::Counter chase_steps =
      obs::MetricsRegistry::Global().GetCounter("pdx_chase_steps_total");
  for (int rep = 0; rep < kRepeats; ++rep) {
    int64_t steps_before = chase_steps.Value();
    auto t0 = std::chrono::steady_clock::now();
    ChaseResult result = Chase(start, tgds, egds, symbols, options);
    auto t1 = std::chrono::steady_clock::now();
    PDX_CHECK(result.outcome == ChaseOutcome::kSuccess);
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < stats.wall_ms) stats.wall_ms = ms;
#ifndef PDX_OBS_NOOP
    stats.steps = chase_steps.Value() - steps_before;
    PDX_CHECK(stats.steps == result.steps)
        << "registry steps diverged from ChaseResult::steps";
#else
    (void)steps_before;
    stats.steps = result.steps;
#endif
    // Resolved counts/fingerprints so the Substitute-based and union-find
    // engines are compared on the same (materialized-equivalent) view.
    stats.result_facts =
        static_cast<int64_t>(result.instance.ResolvedFactCount());
    if (rep == 0) {
      stats.fingerprint = result.instance.CanonicalFingerprint();
      stats.canonical_fingerprint =
          CanonicalizeNulls(result.instance).CanonicalFingerprint();
    }
  }
  // Throughput in derived facts (result minus input) per second.
  double derived =
      static_cast<double>(stats.result_facts) -
      static_cast<double>(start.fact_count());
  stats.facts_per_sec =
      stats.wall_ms > 0 ? derived / (stats.wall_ms / 1000.0) : 0;
  return stats;
}

WorkloadResult RunWorkload(BenchContext& ctx, const std::string& name,
                           const Instance& start,
                           const std::vector<Tgd>& tgds,
                           const std::vector<Egd>& egds) {
  WorkloadResult result;
  result.name = name;
  result.input_facts = static_cast<int64_t>(start.fact_count());
  result.naive =
      RunOne(&ctx.symbols, start, tgds, egds, ChaseStrategy::kRestrictedNaive);
  result.delta =
      RunOne(&ctx.symbols, start, tgds, egds, ChaseStrategy::kRestricted);
  PDX_CHECK(result.naive.fingerprint == result.delta.fingerprint)
      << "strategy disagreement on workload " << name;
  std::fprintf(stderr,
               "%-24s naive %9.2f ms (%6lld steps)   delta %9.2f ms "
               "(%6lld steps)   speedup %5.2fx\n",
               name.c_str(), result.naive.wall_ms,
               static_cast<long long>(result.naive.steps),
               result.delta.wall_ms,
               static_cast<long long>(result.delta.steps),
               result.naive.wall_ms / result.delta.wall_ms);
  return result;
}

// The compiled-vs-interpreted dimension: the delta strategy at 1 thread
// with ChaseOptions::compile_plans off (the retained interpreter) and on
// (the plan/ dependency compiler). Enumeration order — and hence fresh
// null identities — differs between the two executors, so
// the cross-check is renaming-invariant: identical canonicalized
// fingerprints and step counts.
struct CompiledVsInterpretedResult {
  std::string name;
  int64_t input_facts = 0;
  StrategyStats interpreted;
  StrategyStats compiled;
  // compiled facts/sec over interpreted facts/sec (> 1 = compiler wins).
  double speedup = 0;
};

CompiledVsInterpretedResult RunCompiledVsInterpreted(
    SymbolTable* symbols, const std::string& name, const Instance& start,
    const std::vector<Tgd>& tgds, const std::vector<Egd>& egds) {
  CompiledVsInterpretedResult result;
  result.name = name;
  result.input_facts = static_cast<int64_t>(start.fact_count());
  result.interpreted =
      RunOne(symbols, start, tgds, egds, ChaseStrategy::kRestricted,
             /*num_threads=*/1,
             /*compile_plans=*/false);
  result.compiled =
      RunOne(symbols, start, tgds, egds, ChaseStrategy::kRestricted,
             /*num_threads=*/1,
             /*compile_plans=*/true);
  PDX_CHECK(result.compiled.canonical_fingerprint ==
            result.interpreted.canonical_fingerprint)
      << "compiled chase not isomorphic to interpreted chase on " << name;
  PDX_CHECK(result.compiled.steps == result.interpreted.steps)
      << "compiled chase changed the step count on " << name;
  result.speedup = result.interpreted.facts_per_sec > 0
                       ? result.compiled.facts_per_sec /
                             result.interpreted.facts_per_sec
                       : 0;
  std::fprintf(stderr,
               "%-24s interpreted %9.2f ms   compiled %9.2f ms   "
               "facts/sec speedup %5.2fx\n",
               name.c_str(), result.interpreted.wall_ms,
               result.compiled.wall_ms, result.speedup);
  return result;
}

// The bytecode-vs-tree dimension: the compiled delta strategy at 1 thread
// under the recursive tree executor (PDX_FORCE_TREE_EXEC's baseline) and
// the bytecode VM (the default). Both executors run the same compiled
// plans and enumerate identical match sets per partition, so steps and
// canonicalized fingerprints must agree exactly; only wall time may move.
struct BytecodeVsTreeResult {
  std::string name;
  int64_t input_facts = 0;
  StrategyStats tree;
  StrategyStats bytecode;
  // bytecode facts/sec over tree facts/sec (> 1 = the VM wins).
  double speedup = 0;
};

BytecodeVsTreeResult RunBytecodeVsTree(SymbolTable* symbols,
                                       const std::string& name,
                                       const Instance& start,
                                       const std::vector<Tgd>& tgds,
                                       const std::vector<Egd>& egds) {
  BytecodeVsTreeResult result;
  result.name = name;
  result.input_facts = static_cast<int64_t>(start.fact_count());
  const bool saved_force = ForceTreeExec();
  SetForceTreeExec(true);
  result.tree = RunOne(symbols, start, tgds, egds, ChaseStrategy::kRestricted,
                       /*num_threads=*/1,
                       /*compile_plans=*/true);
  SetForceTreeExec(false);
  result.bytecode =
      RunOne(symbols, start, tgds, egds, ChaseStrategy::kRestricted,
             /*num_threads=*/1,
             /*compile_plans=*/true);
  SetForceTreeExec(saved_force);
  PDX_CHECK(result.bytecode.canonical_fingerprint ==
            result.tree.canonical_fingerprint)
      << "bytecode chase not isomorphic to tree chase on " << name;
  PDX_CHECK(result.bytecode.steps == result.tree.steps)
      << "bytecode chase changed the step count on " << name;
  result.speedup =
      result.tree.facts_per_sec > 0
          ? result.bytecode.facts_per_sec / result.tree.facts_per_sec
          : 0;
  std::fprintf(stderr,
               "%-24s tree %9.2f ms   bytecode %9.2f ms   "
               "facts/sec speedup %5.2fx\n",
               name.c_str(), result.tree.wall_ms, result.bytecode.wall_ms,
               result.speedup);
  return result;
}

// The thread-scaling dimension: the same workload, delta strategy, at
// 1/2/4/8 worker threads. Every pooled point must match the 1-thread
// base's step count and fingerprint exactly — the pool must change wall
// time only.
ThreadScalingResult RunThreadScaling(SymbolTable* symbols,
                                     const std::string& name,
                                     const Instance& start,
                                     const std::vector<Tgd>& tgds,
                                     const std::vector<Egd>& egds) {
  ThreadScalingResult result;
  result.name = name;
  result.input_facts = static_cast<int64_t>(start.fact_count());
  StrategyStats base;
  for (int threads : {1, 2, 4, 8}) {
    StrategyStats stats = RunOne(symbols, start, tgds, egds,
                                 ChaseStrategy::kRestricted, threads);
    if (threads == 1) {
      base = stats;
    } else {
      PDX_CHECK(stats.fingerprint == base.fingerprint)
          << threads << "-thread run changed the result on " << name;
      PDX_CHECK(stats.steps == base.steps)
          << threads << "-thread run changed the step count on " << name;
    }
    ThreadPoint point;
    point.threads = threads;
    point.wall_ms = stats.wall_ms;
    point.steps = stats.steps;
    point.speedup_vs_1t = stats.wall_ms > 0 ? base.wall_ms / stats.wall_ms : 0;
    result.points.push_back(point);
    std::fprintf(stderr, "%-24s %d threads %9.2f ms (speedup %5.2fx)\n",
                 name.c_str(), threads, stats.wall_ms, point.speedup_vs_1t);
  }
  return result;
}

void WriteStrategy(JsonWriter& w, const char* key,
                   const StrategyStats& stats) {
  w.Key(key).BeginObject();
  w.Key("wall_ms").Double(stats.wall_ms, 3);
  w.Key("chase_steps").Int(stats.steps);
  w.Key("result_facts").Int(stats.result_facts);
  w.Key("facts_per_sec").Double(stats.facts_per_sec, 1);
  w.EndObject();
}

std::string ToJson(const std::vector<WorkloadResult>& results,
                   const std::vector<CompiledVsInterpretedResult>& compiled,
                   const std::vector<BytecodeVsTreeResult>& bytecode,
                   const std::vector<ThreadScalingResult>& scaling) {
  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("chase");
  w.Key("repeats").Int(kRepeats);
  // Honest-hardware annotation: the thread_scaling numbers below are only
  // meaningful up to this core count (see ROADMAP.md on the 1-core CI box).
  w.Key("nproc").Int(
      static_cast<int64_t>(std::thread::hardware_concurrency()));
  w.Key("workloads").BeginArray();
  for (const WorkloadResult& r : results) {
    w.BeginObject();
    w.Key("name").String(r.name);
    w.Key("input_facts").Int(r.input_facts);
    WriteStrategy(w, "naive", r.naive);
    WriteStrategy(w, "delta", r.delta);
    w.Key("speedup").Double(r.naive.wall_ms / r.delta.wall_ms, 2);
    w.EndObject();
  }
  w.EndArray();
  w.Key("compiled_vs_interpreted").BeginArray();
  for (const CompiledVsInterpretedResult& r : compiled) {
    w.BeginObject();
    w.Key("name").String(r.name);
    w.Key("input_facts").Int(r.input_facts);
    WriteStrategy(w, "interpreted", r.interpreted);
    WriteStrategy(w, "compiled", r.compiled);
    w.Key("speedup").Double(r.speedup, 2);
    w.EndObject();
  }
  w.EndArray();
  w.Key("bytecode_vs_tree").BeginArray();
  for (const BytecodeVsTreeResult& r : bytecode) {
    w.BeginObject();
    w.Key("name").String(r.name);
    w.Key("input_facts").Int(r.input_facts);
    WriteStrategy(w, "tree", r.tree);
    WriteStrategy(w, "bytecode", r.bytecode);
    w.Key("speedup").Double(r.speedup, 2);
    w.EndObject();
  }
  w.EndArray();
  w.Key("thread_scaling").BeginArray();
  for (const ThreadScalingResult& r : scaling) {
    w.BeginObject();
    w.Key("name").String(r.name);
    w.Key("input_facts").Int(r.input_facts);
    w.Key("points").BeginArray();
    for (const ThreadPoint& p : r.points) {
      w.BeginObject();
      w.Key("threads").Int(p.threads);
      w.Key("wall_ms").Double(p.wall_ms, 3);
      w.Key("chase_steps").Int(p.steps);
      w.Key("speedup_vs_1t").Double(p.speedup_vs_1t, 2);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

// Conservative facts/sec floor for the --quick perf smoke gate on
// pipeline_n512 under the bytecode VM. The reference single-core box
// measures ~3.0M facts/sec here, dipping to ~1.0M under heavy scheduler
// contention; the floor sits far below both so noise or a debug-ish
// build never trips it, while a real hot-path regression (e.g. the VM
// silently falling back to the tree executor, or a quadratic index)
// still does.
constexpr double kQuickFactsPerSecFloor = 500'000.0;

int Main(int argc, char** argv) {
  BenchContext ctx;
  // Perf smoke gate (tools/check.sh): pipeline_n512 under the tree
  // executor and the bytecode VM, step- and fingerprint-cross-checked by
  // RunBytecodeVsTree, then gated on an absolute throughput floor.
  if (argc > 1 && std::strcmp(argv[1], "--quick") == 0) {
    Instance start = ctx.RandomEdges(512, 2, 17);
    BytecodeVsTreeResult r = RunBytecodeVsTree(
        &ctx.symbols, "pipeline_n512", start, ctx.pipeline_tgds, {});
    if (r.bytecode.facts_per_sec < kQuickFactsPerSecFloor) {
      std::fprintf(stderr,
                   "FAIL: bytecode VM throughput %.0f facts/sec below the "
                   "smoke floor %.0f on pipeline_n512\n",
                   r.bytecode.facts_per_sec, kQuickFactsPerSecFloor);
      return 1;
    }
    std::fprintf(stderr,
                 "quick gate OK: %.0f facts/sec (floor %.0f), bytecode vs "
                 "tree speedup %.2fx\n",
                 r.bytecode.facts_per_sec, kQuickFactsPerSecFloor,
                 r.speedup);
    return 0;
  }
  std::vector<WorkloadResult> results;
  // Weakly acyclic tgd pipeline at growing scale; the largest size is the
  // headline number the README/DESIGN quote.
  for (int n : {64, 128, 256, 512}) {
    Instance start = ctx.RandomEdges(n, 2, 17);
    results.push_back(RunWorkload(ctx, "pipeline_n" + std::to_string(n),
                                  start, ctx.pipeline_tgds, {}));
  }
  // Existential tgds with a key egd merging the invented nulls.
  for (int n : {64, 128, 256}) {
    Instance start = ctx.RandomEdges(n, 2, 23);
    results.push_back(RunWorkload(ctx, "existential_egd_n" + std::to_string(n),
                                  start, ctx.existential_tgds, ctx.key_egds));
  }
  // Egd-heavy A/B for the union-find value layer: dense graph, one null
  // per edge and per H-fact, two key egds merging nearly all of them.
  for (int n : {64, 128, 256}) {
    Instance start = ctx.RandomEdges(n, 4, 29);
    results.push_back(RunWorkload(ctx, "egd_heavy_n" + std::to_string(n),
                                  start, ctx.egd_heavy_tgds,
                                  ctx.egd_heavy_egds));
  }
  // Compiled-vs-interpreted at 1 thread on each workload family's largest
  // size; pipeline_n512 is the headline point for the dependency compiler.
  std::vector<CompiledVsInterpretedResult> compiled;
  {
    Instance start = ctx.RandomEdges(512, 2, 17);
    compiled.push_back(RunCompiledVsInterpreted(
        &ctx.symbols, "pipeline_n512", start, ctx.pipeline_tgds, {}));
  }
  {
    Instance start = ctx.RandomEdges(256, 2, 23);
    compiled.push_back(RunCompiledVsInterpreted(
        &ctx.symbols, "existential_egd_n256", start, ctx.existential_tgds,
        ctx.key_egds));
  }
  {
    Instance start = ctx.RandomEdges(256, 4, 29);
    compiled.push_back(RunCompiledVsInterpreted(
        &ctx.symbols, "egd_heavy_n256", start, ctx.egd_heavy_tgds,
        ctx.egd_heavy_egds));
  }
  // Bytecode-vs-tree at 1 thread on the same three points as
  // compiled_vs_interpreted; pipeline_n512 is the headline number for the
  // match VM (and what --quick gates on).
  std::vector<BytecodeVsTreeResult> bytecode;
  {
    Instance start = ctx.RandomEdges(512, 2, 17);
    bytecode.push_back(RunBytecodeVsTree(&ctx.symbols, "pipeline_n512",
                                         start, ctx.pipeline_tgds, {}));
  }
  {
    Instance start = ctx.RandomEdges(256, 2, 23);
    bytecode.push_back(RunBytecodeVsTree(&ctx.symbols, "existential_egd_n256",
                                         start, ctx.existential_tgds,
                                         ctx.key_egds));
  }
  {
    Instance start = ctx.RandomEdges(256, 4, 29);
    bytecode.push_back(RunBytecodeVsTree(&ctx.symbols, "egd_heavy_n256",
                                         start, ctx.egd_heavy_tgds,
                                         ctx.egd_heavy_egds));
  }
  // Thread scaling on the two headline workloads, plus a wide
  // disjoint-dependency workload where consecutive tgds touch disjoint
  // relations, so the pooled phase's cross-dependency lookahead actually
  // overlaps collect with apply (on the two headline workloads the
  // dependencies share relations and the lookahead never engages).
  std::vector<ThreadScalingResult> scaling;
  {
    Instance start = ctx.RandomEdges(512, 2, 17);
    scaling.push_back(RunThreadScaling(&ctx.symbols, "pipeline_n512", start,
                                       ctx.pipeline_tgds, {}));
  }
  {
    Instance start = ctx.RandomEdges(256, 4, 29);
    scaling.push_back(RunThreadScaling(&ctx.symbols, "egd_heavy_n256", start,
                                       ctx.egd_heavy_tgds,
                                       ctx.egd_heavy_egds));
  }
  {
    // Heads keyed on (x,y): nearly every collected trigger fires, so the
    // apply phase is insert-heavy — the case worker-side instantiation
    // (workers pre-build the head tuples) and the lookahead (the next
    // dependency's collect runs during this one's inserts) target. A
    // head keyed on x alone would fire once per node and collect ~16
    // triggers per fire, wasting the worker-side instantiation.
    Schema wide;
    SymbolTable wide_symbols;
    std::string rules;
    for (int i = 0; i < 4; ++i) {
      std::string a = "A" + std::to_string(i), b = "B" + std::to_string(i);
      PDX_CHECK(wide.AddRelation(a, 2).ok());
      PDX_CHECK(wide.AddRelation(b, 3).ok());
      rules += a + "(x,z) & " + a + "(z,y) -> exists w: " + b + "(x,y,w). ";
    }
    auto deps = ParseDependencies(rules, wide, &wide_symbols);
    PDX_CHECK(deps.ok());
    Rng rng(37);
    Instance start(&wide);
    for (int group = 0; group < 4; ++group) {
      for (int i = 0; i < 2048; ++i) {
        Value u = wide_symbols.InternConstant(
            "n" + std::to_string(rng.UniformInt(512)));
        Value v = wide_symbols.InternConstant(
            "n" + std::to_string(rng.UniformInt(512)));
        start.AddFact(static_cast<RelationId>(2 * group), {u, v});
      }
    }
    scaling.push_back(RunThreadScaling(&wide_symbols, "disjoint_4x_n512",
                                       start, deps->tgds, {}));
  }

  std::string path = argc > 1 ? argv[1] : "BENCH_chase.json";
  std::string json = ToJson(results, compiled, bytecode, scaling);
  std::FILE* f = std::fopen(path.c_str(), "w");
  PDX_CHECK(f != nullptr) << "cannot open " << path;
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace pdx

int main(int argc, char** argv) { return pdx::Main(argc, argv); }
