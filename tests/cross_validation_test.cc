// Property-based cross-validation: on randomly generated C_tract settings
// and instances, the polynomial ExistsSolution algorithm (Figure 3) must
// agree with the sound-and-complete generic search solver, and any witness
// either solver produces must verify against Definition 2.

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "gtest/gtest.h"
#include "chase/stream.h"
#include "hom/instance_hom.h"
#include "hom/match_vm.h"
#include "logic/parser.h"
#include "pde/ctract_solver.h"
#include "pde/data_exchange.h"
#include "pde/generic_solver.h"
#include "pde/solution.h"
#include "tests/test_util.h"
#include "workload/churn.h"
#include "workload/setting_gen.h"

namespace pdx {
namespace {

using testing_util::Unwrap;

enum class GenKind { kLavTs, kFullSt };

struct CrossValidationParam {
  GenKind kind;
  uint64_t seed;
  int facts;
};

class CrossValidationTest
    : public ::testing::TestWithParam<CrossValidationParam> {};

TEST_P(CrossValidationTest, SolversAgreeOnRandomCtractSettings) {
  const CrossValidationParam& param = GetParam();
  Rng rng(param.seed);
  SymbolTable symbols;
  SettingGenOptions opts;
  opts.max_arity = 2;
  opts.st_tgd_count = 2;
  opts.ts_tgd_count = 2;
  StatusOr<GeneratedSetting> generated =
      param.kind == GenKind::kLavTs
          ? MakeRandomLavSetting(opts, &rng, &symbols)
          : MakeRandomFullStSetting(opts, &rng, &symbols);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const PdeSetting& setting = generated->setting;
  ASSERT_TRUE(setting.InCtract())
      << "generator must produce C_tract settings:\nΣst:\n"
      << generated->sigma_st << "\nΣts:\n" << generated->sigma_ts;

  Instance source = MakeRandomSourceInstance(setting, param.facts,
                                             /*constant_pool=*/4, &rng,
                                             &symbols);
  Instance target = setting.EmptyInstance();

  CtractSolveResult fast =
      Unwrap(CtractExistsSolution(setting, source, target, &symbols),
             "CtractExistsSolution");

  GenericSolverOptions solver_options;
  solver_options.max_nodes = 200'000;
  GenericSolveResult slow = Unwrap(
      GenericExistsSolution(setting, source, target, &symbols,
                            solver_options),
      "GenericExistsSolution");
  if (slow.outcome == SolveOutcome::kBudgetExhausted) {
    GTEST_SKIP() << "generic solver budget exhausted on this seed";
  }

  EXPECT_EQ(fast.has_solution,
            slow.outcome == SolveOutcome::kSolutionFound)
      << "solver disagreement on seed " << param.seed << "\nΣst:\n"
      << generated->sigma_st << "\nΣts:\n" << generated->sigma_ts
      << "\nI:\n" << source.ToString(symbols);

  if (fast.has_solution) {
    EXPECT_TRUE(IsSolution(setting, source, target, *fast.solution, symbols))
        << "Ctract witness failed verification on seed " << param.seed;
  }
  if (slow.outcome == SolveOutcome::kSolutionFound) {
    EXPECT_TRUE(IsSolution(setting, source, target, *slow.solution, symbols))
        << "generic witness failed verification on seed " << param.seed;
  }
}

std::vector<CrossValidationParam> MakeParams() {
  std::vector<CrossValidationParam> params;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    params.push_back({GenKind::kLavTs, seed, 6});
    params.push_back({GenKind::kFullSt, seed, 6});
  }
  for (uint64_t seed = 100; seed <= 110; ++seed) {
    params.push_back({GenKind::kLavTs, seed, 12});
    params.push_back({GenKind::kFullSt, seed, 12});
  }
  return params;
}

std::string ParamName(
    const ::testing::TestParamInfo<CrossValidationParam>& info) {
  return std::string(info.param.kind == GenKind::kLavTs ? "LavTs"
                                                        : "FullSt") +
         "Seed" + std::to_string(info.param.seed) + "Facts" +
         std::to_string(info.param.facts);
}

INSTANTIATE_TEST_SUITE_P(RandomCtract, CrossValidationTest,
                         ::testing::ValuesIn(MakeParams()), ParamName);

// Non-empty target instances exercise the J ⊆ J' requirement.
class CrossValidationWithTargetTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossValidationWithTargetTest, SolversAgreeWithNonEmptyJ) {
  Rng rng(GetParam());
  SymbolTable symbols;
  SettingGenOptions opts;
  opts.max_arity = 2;
  opts.st_tgd_count = 2;
  opts.ts_tgd_count = 2;
  GeneratedSetting generated =
      Unwrap(MakeRandomLavSetting(opts, &rng, &symbols));
  const PdeSetting& setting = generated.setting;
  Instance source =
      MakeRandomSourceInstance(setting, 5, 4, &rng, &symbols);
  Instance target =
      MakeRandomTargetInstance(setting, 3, 4, &rng, &symbols);

  CtractSolveResult fast = Unwrap(
      CtractExistsSolution(setting, source, target, &symbols));
  GenericSolverOptions solver_options;
  solver_options.max_nodes = 200'000;
  GenericSolveResult slow = Unwrap(GenericExistsSolution(
      setting, source, target, &symbols, solver_options));
  if (slow.outcome == SolveOutcome::kBudgetExhausted) {
    GTEST_SKIP() << "generic solver budget exhausted on this seed";
  }
  EXPECT_EQ(fast.has_solution,
            slow.outcome == SolveOutcome::kSolutionFound)
      << "seed " << GetParam() << "\nΣst:\n" << generated.sigma_st
      << "\nΣts:\n" << generated.sigma_ts << "\nI:\n"
      << source.ToString(symbols) << "\nJ:\n" << target.ToString(symbols);
  if (fast.has_solution) {
    EXPECT_TRUE(target.IsSubsetOf(*fast.solution));
    EXPECT_TRUE(
        IsSolution(setting, source, target, *fast.solution, symbols));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossValidationWithTargetTest,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

// The chase strategy must be invisible to end-to-end solving: the C_tract
// solver (two chase phases) and the data exchange pipeline must return the
// same answers — and the same canonical instances — whether their chases
// run delta-driven or naively.
class ChaseStrategyCrossValidationTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaseStrategyCrossValidationTest, CtractAgreesAcrossStrategies) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  SymbolTable symbols;
  SettingGenOptions opts;
  opts.max_arity = 2;
  opts.st_tgd_count = 2;
  opts.ts_tgd_count = 2;
  GeneratedSetting generated =
      Unwrap(seed % 2 == 0 ? MakeRandomLavSetting(opts, &rng, &symbols)
                           : MakeRandomFullStSetting(opts, &rng, &symbols));
  const PdeSetting& setting = generated.setting;
  Instance source = MakeRandomSourceInstance(setting, 8, 4, &rng, &symbols);
  Instance target = MakeRandomTargetInstance(setting, 3, 4, &rng, &symbols);

  ChaseOptions naive_options;
  naive_options.strategy = ChaseStrategy::kRestrictedNaive;
  ChaseOptions delta_options;
  delta_options.strategy = ChaseStrategy::kRestricted;
  // Compiled-plan toggle per seed: even seeds run the delta engine
  // through the dependency compiler, odd seeds through the interpreter,
  // so both lanes stay covered by the randomized sweep.
  delta_options.compile_plans = seed % 2 == 0;

  CtractSolveResult naive = Unwrap(CtractExistsSolution(
      setting, source, target, &symbols, naive_options));
  CtractSolveResult delta = Unwrap(CtractExistsSolution(
      setting, source, target, &symbols, delta_options));

  EXPECT_EQ(naive.has_solution, delta.has_solution)
      << "strategy disagreement on seed " << seed << "\nΣst:\n"
      << generated.sigma_st << "\nΣts:\n" << generated.sigma_ts;
  if (naive.has_solution && delta.has_solution) {
    ASSERT_TRUE(naive.solution.has_value());
    ASSERT_TRUE(delta.solution.has_value());
    EXPECT_EQ(naive.solution->CanonicalFingerprint(),
              delta.solution->CanonicalFingerprint())
        << "seed " << seed;
    EXPECT_TRUE(
        IsSolution(setting, source, target, *delta.solution, symbols));
  }
}

TEST_P(ChaseStrategyCrossValidationTest, DataExchangeAgreesAcrossStrategies) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  SymbolTable symbols;
  // A data exchange setting (Σ_ts = ∅) with target tgds and a key egd, so
  // both chase engines exercise the tgd/egd interleaving end to end.
  PdeSetting setting = Unwrap(PdeSetting::Create(
      {{"E", 2}}, {{"H", 2}, {"F", 2}},
      "E(x,y) -> exists z: H(x,z). E(x,y) & E(y,z) -> H(x,z).", "",
      "H(x,y) -> F(x,y). H(x,y) & H(x,z) -> y = z.", &symbols));
  Instance source = MakeRandomSourceInstance(setting, 10, 5, &rng, &symbols);
  Instance target = setting.EmptyInstance();

  ChaseOptions naive_options;
  naive_options.strategy = ChaseStrategy::kRestrictedNaive;
  ChaseOptions delta_options;
  delta_options.strategy = ChaseStrategy::kRestricted;
  delta_options.compile_plans = seed % 2 == 0;

  DataExchangeResult naive = Unwrap(SolveDataExchange(
      setting, source, target, &symbols, naive_options));
  DataExchangeResult delta = Unwrap(SolveDataExchange(
      setting, source, target, &symbols, delta_options));

  EXPECT_EQ(naive.has_solution, delta.has_solution) << "seed " << seed;

  // Plan-vs-interpreter: the same delta solve with compile_plans flipped
  // must agree on the verdict and on the universal solution up to null
  // renaming (the compiled executor's enumeration order — and hence fresh
  // null identities — is its own).
  ChaseOptions flipped_options = delta_options;
  flipped_options.compile_plans = !delta_options.compile_plans;
  DataExchangeResult flipped = Unwrap(SolveDataExchange(
      setting, source, target, &symbols, flipped_options));
  EXPECT_EQ(flipped.has_solution, delta.has_solution)
      << "compiled/interpreted disagreement on seed " << seed;
  if (flipped.has_solution && delta.has_solution) {
    ASSERT_TRUE(flipped.universal_solution.has_value());
    EXPECT_EQ(flipped.nulls_created, delta.nulls_created) << "seed " << seed;
    EXPECT_EQ(
        testing_util::CanonicalizedFingerprint(*flipped.universal_solution),
        testing_util::CanonicalizedFingerprint(*delta.universal_solution))
        << "compiled/interpreted fingerprint divergence on seed " << seed;
  }
  if (naive.has_solution && delta.has_solution) {
    ASSERT_TRUE(naive.universal_solution.has_value());
    ASSERT_TRUE(delta.universal_solution.has_value());
    EXPECT_EQ(naive.universal_solution->CanonicalFingerprint(),
              delta.universal_solution->CanonicalFingerprint())
        << "seed " << seed;
  }

  // VM-vs-tree: the compiled delta solve run once per planned executor
  // (toggled per seed which leg runs first; both always run). The bytecode
  // VM and the tree executor enumerate identical match sets, so verdict,
  // null count and the solution up to null renaming must agree.
  {
    ChaseOptions compiled_options = delta_options;
    compiled_options.compile_plans = true;
    const bool saved_force = ForceTreeExec();
    const bool vm_first = seed % 2 == 0;
    SetForceTreeExec(!vm_first);
    DataExchangeResult first = Unwrap(SolveDataExchange(
        setting, source, target, &symbols, compiled_options));
    SetForceTreeExec(vm_first);
    DataExchangeResult second = Unwrap(SolveDataExchange(
        setting, source, target, &symbols, compiled_options));
    SetForceTreeExec(saved_force);
    EXPECT_EQ(first.has_solution, second.has_solution)
        << "vm/tree disagreement on seed " << seed;
    if (first.has_solution && second.has_solution) {
      ASSERT_TRUE(first.universal_solution.has_value());
      ASSERT_TRUE(second.universal_solution.has_value());
      EXPECT_EQ(first.nulls_created, second.nulls_created)
          << "seed " << seed;
      EXPECT_EQ(
          testing_util::CanonicalizedFingerprint(*first.universal_solution),
          testing_util::CanonicalizedFingerprint(*second.universal_solution))
          << "vm/tree fingerprint divergence on seed " << seed;
    }
  }

  // A randomized parallel configuration of the delta solve (thread count
  // drawn per seed) must return the same verdict, and the same universal
  // solution up to null renaming.
  ChaseOptions parallel_options = delta_options;
  const int kThreadChoices[] = {1, 2, 8};
  parallel_options.num_threads = kThreadChoices[rng.UniformInt(3)];
  DataExchangeResult parallel = Unwrap(SolveDataExchange(
      setting, source, target, &symbols, parallel_options));
  EXPECT_EQ(parallel.has_solution, delta.has_solution)
      << "seed " << seed << " threads " << parallel_options.num_threads;
  if (parallel.has_solution && delta.has_solution) {
    ASSERT_TRUE(parallel.universal_solution.has_value());
    EXPECT_EQ(parallel.nulls_created, delta.nulls_created) << "seed " << seed;
    EXPECT_EQ(
        testing_util::CanonicalizedFingerprint(*parallel.universal_solution),
        testing_util::CanonicalizedFingerprint(*delta.universal_solution))
        << "seed " << seed << " threads " << parallel_options.num_threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseStrategyCrossValidationTest,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

// Egd-heavy chase cross-validation: on randomized instances whose every
// invented null is hit by a key egd, the union-find engine (kRestricted)
// and the Substitute-based baseline (kRestrictedNaive) must agree on the
// outcome, produce homomorphically equivalent results, and hash to the
// same resolved fingerprint — and the union-find result's resolve-on-read
// view must match its own materialization.
class EgdHeavyChaseCrossValidationTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EgdHeavyChaseCrossValidationTest, EnginesAgreeOnEgdHeavyChases) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  SymbolTable symbols;
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("E", 2).ok());
  ASSERT_TRUE(schema.AddRelation("H", 2).ok());
  ASSERT_TRUE(schema.AddRelation("F", 2).ok());
  RelationId e = 0, h = 1;

  // The shared existential across the two head atoms forces one null per
  // E-edge; the key egds then merge them in cascades across H and F.
  auto deps = ParseDependencies(
      "E(x,y) -> exists z: H(x,z) & F(y,z). "
      "H(x,y) & H(x,z) -> y = z. "
      "F(x,y) & F(x,z) -> y = z.",
      schema, &symbols);
  ASSERT_TRUE(deps.ok()) << deps.status().ToString();

  Instance start(&schema);
  int nodes = 3 + static_cast<int>(rng.UniformInt(5));
  int edges = nodes * (1 + static_cast<int>(rng.UniformInt(3)));
  auto node = [&](int i) {
    return symbols.InternConstant("n" + std::to_string(i));
  };
  for (int i = 0; i < edges; ++i) {
    start.AddFact(e, {node(static_cast<int>(rng.UniformInt(nodes))),
                      node(static_cast<int>(rng.UniformInt(nodes)))});
  }
  // Pre-seed some H-facts: nulls join the merge cascades; constants make
  // constant/constant egd failures reachable, which both engines must
  // report identically.
  int seeded = static_cast<int>(rng.UniformInt(4));
  for (int i = 0; i < seeded; ++i) {
    Value key = node(static_cast<int>(rng.UniformInt(nodes)));
    Value payload = rng.UniformInt(3) == 0
                        ? node(static_cast<int>(rng.UniformInt(nodes)))
                        : symbols.FreshNull();
    start.AddFact(h, {key, payload});
  }

  ChaseOptions naive_options;
  naive_options.strategy = ChaseStrategy::kRestrictedNaive;
  ChaseOptions delta_options;
  delta_options.strategy = ChaseStrategy::kRestricted;
  delta_options.compile_plans = seed % 2 == 0;
  ChaseResult naive =
      Chase(start, deps->tgds, deps->egds, &symbols, naive_options);
  ChaseResult delta =
      Chase(start, deps->tgds, deps->egds, &symbols, delta_options);

  ASSERT_EQ(naive.outcome, delta.outcome)
      << "engine disagreement on seed " << seed << "\nI:\n"
      << start.ToString(symbols);

  // A randomized parallel configuration of the delta chase (thread count
  // drawn per seed): same outcome always; on success, the same step count
  // — pending sets are thread-count-invariant — and the same result up to
  // null renaming.
  ChaseOptions parallel_options = delta_options;
  const int kThreadChoices[] = {1, 2, 8};
  parallel_options.num_threads = kThreadChoices[rng.UniformInt(3)];
  ChaseResult parallel =
      Chase(start, deps->tgds, deps->egds, &symbols, parallel_options);
  ASSERT_EQ(parallel.outcome, delta.outcome)
      << "parallel disagreement on seed " << seed << " threads "
      << parallel_options.num_threads << "\nI:\n"
      << start.ToString(symbols);
  if (delta.outcome == ChaseOutcome::kSuccess) {
    EXPECT_EQ(parallel.steps, delta.steps) << "seed " << seed;
    EXPECT_EQ(parallel.nulls_created, delta.nulls_created) << "seed " << seed;
    EXPECT_EQ(testing_util::CanonicalizedFingerprint(parallel.instance),
              testing_util::CanonicalizedFingerprint(delta.instance))
        << "seed " << seed << " threads " << parallel_options.num_threads;
  }

  // Plan-vs-interpreter cross-validation: flipping compile_plans on the
  // sequential delta chase must reproduce the outcome, counts, and the
  // result up to null renaming (the two-atom bodies here make the
  // compiled join order coincide with the interpreter's).
  ChaseOptions flipped_options = delta_options;
  flipped_options.compile_plans = !delta_options.compile_plans;
  ChaseResult flipped =
      Chase(start, deps->tgds, deps->egds, &symbols, flipped_options);
  ASSERT_EQ(flipped.outcome, delta.outcome)
      << "compiled/interpreted disagreement on seed " << seed << "\nI:\n"
      << start.ToString(symbols);
  if (delta.outcome == ChaseOutcome::kSuccess) {
    EXPECT_EQ(flipped.steps, delta.steps) << "seed " << seed;
    EXPECT_EQ(flipped.nulls_created, delta.nulls_created) << "seed " << seed;
    EXPECT_EQ(testing_util::CanonicalizedFingerprint(flipped.instance),
              testing_util::CanonicalizedFingerprint(delta.instance))
        << "compiled/interpreted fingerprint divergence on seed " << seed;
  }

  // VM-vs-tree cross-validation on the egd-heavy chase: the compiled
  // sequential delta chase under both planned executors (leg order toggled
  // per seed). Identical match sets per partition force identical
  // outcomes, step counts, null counts, and results up to null renaming.
  {
    ChaseOptions compiled_options = delta_options;
    compiled_options.compile_plans = true;
    const bool saved_force = ForceTreeExec();
    const bool vm_first = seed % 2 == 1;
    SetForceTreeExec(!vm_first);
    ChaseResult first =
        Chase(start, deps->tgds, deps->egds, &symbols, compiled_options);
    SetForceTreeExec(vm_first);
    ChaseResult second =
        Chase(start, deps->tgds, deps->egds, &symbols, compiled_options);
    SetForceTreeExec(saved_force);
    ASSERT_EQ(first.outcome, second.outcome)
        << "vm/tree disagreement on seed " << seed << "\nI:\n"
        << start.ToString(symbols);
    if (first.outcome == ChaseOutcome::kSuccess) {
      EXPECT_EQ(first.steps, second.steps) << "seed " << seed;
      EXPECT_EQ(first.nulls_created, second.nulls_created)
          << "seed " << seed;
      EXPECT_EQ(testing_util::CanonicalizedFingerprint(first.instance),
                testing_util::CanonicalizedFingerprint(second.instance))
          << "vm/tree fingerprint divergence on seed " << seed;
    }
  }

  if (delta.outcome != ChaseOutcome::kSuccess) return;

  EXPECT_EQ(naive.instance.CanonicalFingerprint(),
            delta.instance.CanonicalFingerprint())
      << "resolved fingerprints diverge on seed " << seed << "\nnaive:\n"
      << naive.instance.ToString(symbols) << "\ndelta:\n"
      << delta.instance.ToString(symbols);

  // Homomorphic equivalence in both directions (fingerprint equality
  // already implies isomorphism w.h.p.; this checks it constructively).
  EXPECT_TRUE(
      FindInstanceHomomorphism(naive.instance, delta.instance).has_value())
      << "no homomorphism naive -> delta on seed " << seed;
  EXPECT_TRUE(
      FindInstanceHomomorphism(delta.instance, naive.instance).has_value())
      << "no homomorphism delta -> naive on seed " << seed;

  // Both results actually satisfy the dependencies they were chased with.
  EXPECT_TRUE(SatisfiesAll(naive.instance, *deps)) << "seed " << seed;
  EXPECT_TRUE(SatisfiesAll(delta.instance, *deps)) << "seed " << seed;

  // The union-find instance's live resolve-on-read view must agree with
  // its own materialization, and expose only class roots.
  Instance compact = delta.instance.CompactResolved();
  EXPECT_FALSE(compact.has_merges());
  EXPECT_EQ(compact.CanonicalFingerprint(),
            delta.instance.CanonicalFingerprint());
  EXPECT_EQ(compact.fact_count(), delta.instance.ResolvedFactCount());
  std::unordered_set<uint64_t> roots;
  for (Value v : delta.instance.Nulls()) {
    EXPECT_EQ(delta.instance.ResolveValue(v), v)
        << "resolved view exposed a non-root null on seed " << seed;
    EXPECT_TRUE(roots.insert(v.packed()).second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EgdHeavyChaseCrossValidationTest,
                         ::testing::Range(uint64_t{1}, uint64_t{41}));

// Churn lane: a random C_tract setting whose source instance lives in a
// StreamingChase and churns through ±Δ batches. After every batch, the
// incremental exists verdict (witness carried across batches through
// GenericExistsSolutionIncremental) must agree with a fresh generic
// solver — and with the Figure 3 fast path — replaying the churn stream's
// net instance into a fresh engine.
class StreamingChurnCrossValidationTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingChurnCrossValidationTest,
       IncrementalExistsAgreesWithFreshSolversUnderChurn) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  SymbolTable symbols;
  SettingGenOptions opts;
  opts.max_arity = 2;
  opts.st_tgd_count = 2;
  opts.ts_tgd_count = 2;
  StatusOr<GeneratedSetting> generated =
      MakeRandomLavSetting(opts, &rng, &symbols);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const PdeSetting& setting = generated->setting;

  Instance seed_source =
      MakeRandomSourceInstance(setting, 12, /*constant_pool=*/4, &rng,
                               &symbols);
  std::vector<Fact> universe = seed_source.AllFacts();
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()),
                 universe.end());
  if (universe.size() < 4) {
    GTEST_SKIP() << "degenerate universe on this seed";
  }

  ChurnOptions churn_options;
  churn_options.delete_rate = 0.3;
  churn_options.insert_rate = 0.25;
  churn_options.overlap = 0.5;
  churn_options.seed = seed * 977 + 5;
  ChurnStream churn(universe, universe.size() / 2, churn_options);

  // Dependency-free stream: it maintains exactly the net source, the way
  // pdxd's writer owns the admitted base.
  StreamingChase stream(&setting.schema(), {}, {}, &symbols);
  ASSERT_TRUE(stream.Initialize(churn.NetInstance(&setting.schema())).ok());

  Instance target = setting.EmptyInstance();
  GenericSolverOptions solver_options;
  solver_options.max_nodes = 200'000;
  std::optional<Instance> witness;

  for (int batch_idx = 0; batch_idx < 4; ++batch_idx) {
    ChurnBatch batch = churn.Next();
    ASSERT_TRUE(stream.ResumeWithDeltas(batch.adds, batch.deletes).ok());

    IncrementalSolveResult incremental =
        Unwrap(GenericExistsSolutionIncremental(
                   setting, stream.instance(), target,
                   witness.has_value() ? &*witness : nullptr, &symbols,
                   solver_options),
               "GenericExistsSolutionIncremental");
    GenericSolveResult fresh =
        Unwrap(GenericExistsSolution(setting,
                                     churn.NetInstance(&setting.schema()),
                                     target, &symbols, solver_options),
               "GenericExistsSolution");
    if (incremental.result.outcome == SolveOutcome::kBudgetExhausted ||
        fresh.outcome == SolveOutcome::kBudgetExhausted) {
      GTEST_SKIP() << "solver budget exhausted on this seed";
    }
    EXPECT_EQ(incremental.result.outcome, fresh.outcome)
        << "incremental/fresh divergence, seed " << seed << " batch "
        << batch_idx << (incremental.revalidated ? " (revalidated)" : "");

    CtractSolveResult fast = Unwrap(
        CtractExistsSolution(setting, stream.instance(), target, &symbols),
        "CtractExistsSolution");
    EXPECT_EQ(fast.has_solution,
              fresh.outcome == SolveOutcome::kSolutionFound)
        << "fast-path divergence, seed " << seed << " batch " << batch_idx;

    if (incremental.result.outcome == SolveOutcome::kSolutionFound) {
      ASSERT_TRUE(incremental.result.solution.has_value());
      EXPECT_TRUE(IsSolution(setting, stream.instance(), target,
                             *incremental.result.solution, symbols))
          << "incremental witness failed verification, seed " << seed
          << " batch " << batch_idx;
      witness = *incremental.result.solution;
    } else {
      witness.reset();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingChurnCrossValidationTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

}  // namespace
}  // namespace pdx
