// Robustness sweeps: randomly mangled inputs must produce error Statuses,
// never crashes, and valid inputs must survive mutation-and-reparse loops;
// fuzzed chases must keep the value layer's invariants.

#include <string>
#include <unordered_set>

#include "gtest/gtest.h"
#include "chase/chase.h"
#include "chase/stream.h"
#include "hom/instance_hom.h"
#include "hom/match_vm.h"
#include "logic/parser.h"
#include "pde/setting_file.h"
#include "relational/instance_io.h"
#include "tests/test_util.h"
#include "workload/churn.h"
#include "workload/random.h"

namespace pdx {
namespace {

// Characters the parsers care about, over-weighted with structure.
constexpr char kAlphabet[] =
    "abcxyzEHPq0129_,&|()'->:=.# \n\tEEHH(((--->>exists";

std::string RandomText(Rng* rng, int length) {
  std::string text;
  text.reserve(length);
  for (int i = 0; i < length; ++i) {
    text.push_back(
        kAlphabet[rng->UniformInt(sizeof(kAlphabet) - 1)]);
  }
  return text;
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.AddRelation("E", 2).ok());
    ASSERT_TRUE(schema_.AddRelation("H", 2).ok());
    ASSERT_TRUE(schema_.AddRelation("P", 4).ok());
  }

  Schema schema_;
  SymbolTable symbols_;
};

TEST_P(FuzzTest, DependencyParserNeverCrashes) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::string text = RandomText(&rng, 1 + rng.UniformInt(80));
    // Must return; outcome (ok or error) is unconstrained.
    auto result = ParseDependencies(text, schema_, &symbols_);
    (void)result;
  }
}

TEST_P(FuzzTest, QueryParserNeverCrashes) {
  Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 200; ++trial) {
    std::string text = RandomText(&rng, 1 + rng.UniformInt(60));
    auto result = ParseUnionQuery(text, schema_, &symbols_);
    (void)result;
  }
}

TEST_P(FuzzTest, InstanceParserNeverCrashes) {
  Rng rng(GetParam() + 2000);
  for (int trial = 0; trial < 200; ++trial) {
    std::string text = RandomText(&rng, 1 + rng.UniformInt(60));
    auto result = ParseInstance(text, schema_, &symbols_);
    (void)result;
  }
}

TEST_P(FuzzTest, SettingFileParserNeverCrashes) {
  Rng rng(GetParam() + 3000);
  for (int trial = 0; trial < 100; ++trial) {
    std::string text =
        "[source]\nE/2\n[target]\nH/2\n" + RandomText(&rng, 80);
    SymbolTable symbols;
    auto result = ParseSettingFile(text, &symbols);
    (void)result;
  }
}

TEST_P(FuzzTest, MutatedValidDependencySurvives) {
  Rng rng(GetParam() + 4000);
  const std::string valid =
      "E(x,z) & E(z,y) -> H(x,y). H(x,y) -> exists w: E(x,w).";
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = valid;
    int mutations = 1 + rng.UniformInt(4);
    for (int m = 0; m < mutations; ++m) {
      size_t pos = rng.UniformInt(static_cast<uint32_t>(mutated.size()));
      mutated[pos] = kAlphabet[rng.UniformInt(sizeof(kAlphabet) - 1)];
    }
    auto result = ParseDependencies(mutated, schema_, &symbols_);
    if (result.ok()) {
      // If it still parses, the result must render and reparse.
      for (const Tgd& tgd : result->tgds) {
        std::string rendered = tgd.ToString(schema_, symbols_) + ".";
        EXPECT_TRUE(ParseTgd(rendered, schema_, &symbols_).ok())
            << "render/reparse broke on: " << rendered;
      }
    }
  }
}

// Chase fuzz: random instances (constants and shared nulls) through
// egd-bearing rule sets. Whatever the merge order, the union-find engine
// must agree with the Substitute baseline, and its resolved view must
// expose every surviving null as its own class root — a null resolving to
// a non-root would mean a stale parent link survived the chase.
TEST_P(FuzzTest, FuzzedChasesResolveSurvivingNullsToUniqueRoots) {
  Rng rng(GetParam() + 5000);
  const char* kRuleSets[] = {
      "E(x,y) -> exists z: H(x,z). H(x,y) & H(x,z) -> y = z.",
      "E(x,y) -> exists z: H(x,z) & H(y,z). H(x,y) & H(x,z) -> y = z.",
      "E(x,z) & E(z,y) -> H(x,y). H(x,y) -> exists w: E(x,w). "
      "H(x,y) & H(x,z) -> y = z. E(x,y) & E(x,z) -> y = z.",
  };
  for (int trial = 0; trial < 20; ++trial) {
    auto deps =
        ParseDependencies(kRuleSets[rng.UniformInt(3)], schema_, &symbols_);
    ASSERT_TRUE(deps.ok()) << deps.status().ToString();

    Instance start(&schema_);
    int pool = 2 + static_cast<int>(rng.UniformInt(4));
    std::vector<Value> nulls;
    for (int i = 0; i < 3; ++i) nulls.push_back(symbols_.FreshNull());
    int facts = 3 + static_cast<int>(rng.UniformInt(8));
    for (int i = 0; i < facts; ++i) {
      RelationId relation = static_cast<RelationId>(rng.UniformInt(2));
      Tuple tuple;
      for (int pos = 0; pos < 2; ++pos) {
        if (rng.UniformInt(4) == 0) {
          tuple.push_back(nulls[rng.UniformInt(3)]);
        } else {
          tuple.push_back(symbols_.InternConstant(
              "k" + std::to_string(rng.UniformInt(pool))));
        }
      }
      start.AddFact(relation, tuple);
    }

    ChaseOptions naive_options;
    naive_options.strategy = ChaseStrategy::kRestrictedNaive;
    naive_options.max_steps = 5000;
    ChaseOptions delta_options;
    delta_options.strategy = ChaseStrategy::kRestricted;
    delta_options.max_steps = 5000;
    // Compiled-plan toggle drawn per trial; every delta-engine
    // configuration of this trial (sequential and parallel) uses the same
    // lane, and the flipped lane is cross-validated below.
    delta_options.compile_plans = rng.UniformInt(2) == 1;
    ChaseResult naive =
        Chase(start, deps->tgds, deps->egds, &symbols_, naive_options);
    ChaseResult delta =
        Chase(start, deps->tgds, deps->egds, &symbols_, delta_options);

    ASSERT_EQ(naive.outcome, delta.outcome)
        << "engine disagreement, trial " << trial << "\nI:\n"
        << start.ToString(symbols_);

    // A randomized parallel configuration of the same delta chase: thread
    // count drawn per trial. The parallel run must agree with the
    // sequential delta run on outcome; on success, per-round pending sets
    // are thread-count-invariant, so steps must match exactly and the
    // results must be equal up to null renaming.
    ChaseOptions parallel_options = delta_options;
    const int kThreadChoices[] = {1, 2, 8};
    parallel_options.num_threads = kThreadChoices[rng.UniformInt(3)];
    ChaseResult parallel =
        Chase(start, deps->tgds, deps->egds, &symbols_, parallel_options);
    ASSERT_EQ(parallel.outcome, delta.outcome)
        << "parallel disagreement, trial " << trial << " threads "
        << parallel_options.num_threads << "\nI:\n"
        << start.ToString(symbols_);
    if (delta.outcome == ChaseOutcome::kSuccess) {
      EXPECT_EQ(parallel.steps, delta.steps) << "trial " << trial;
      EXPECT_EQ(parallel.nulls_created, delta.nulls_created)
          << "trial " << trial;
      EXPECT_EQ(testing_util::CanonicalizedFingerprint(parallel.instance),
                testing_util::CanonicalizedFingerprint(delta.instance))
          << "trial " << trial << " threads " << parallel_options.num_threads
          << "\nI:\n" << start.ToString(symbols_);
    }

    // Plan-vs-interpreter cross-validation: the same sequential delta
    // chase with compile_plans flipped. On these rule sets (bodies of at
    // most two atoms) the compiled join order coincides with the
    // interpreter's, so outcome, step count, null count and the
    // canonicalized fingerprint must all agree.
    ChaseOptions flipped_options = delta_options;
    flipped_options.compile_plans = !delta_options.compile_plans;
    ChaseResult flipped =
        Chase(start, deps->tgds, deps->egds, &symbols_, flipped_options);
    ASSERT_EQ(flipped.outcome, delta.outcome)
        << "compiled/interpreted disagreement, trial " << trial
        << " compile_plans " << flipped_options.compile_plans << "\nI:\n"
        << start.ToString(symbols_);
    if (delta.outcome == ChaseOutcome::kSuccess) {
      EXPECT_EQ(flipped.steps, delta.steps) << "trial " << trial;
      EXPECT_EQ(flipped.nulls_created, delta.nulls_created)
          << "trial " << trial;
      EXPECT_EQ(testing_util::CanonicalizedFingerprint(flipped.instance),
                testing_util::CanonicalizedFingerprint(delta.instance))
          << "compiled/interpreted fingerprint divergence, trial " << trial
          << "\nI:\n" << start.ToString(symbols_);
    }

    // VM-vs-tree cross-validation: the same compiled sequential delta
    // chase under both planned executors (the bytecode VM and the
    // recursive tree walk it replaced). They enumerate identical match
    // sets per partition, so outcome, step count, null count and the
    // canonicalized fingerprint must all agree. The prior executor state
    // (possibly pinned by PDX_FORCE_TREE_EXEC) is restored afterwards.
    {
      ChaseOptions compiled_options = delta_options;
      compiled_options.compile_plans = true;
      const bool saved_force = ForceTreeExec();
      SetForceTreeExec(false);
      ChaseResult vm_run =
          Chase(start, deps->tgds, deps->egds, &symbols_, compiled_options);
      SetForceTreeExec(true);
      ChaseResult tree_run =
          Chase(start, deps->tgds, deps->egds, &symbols_, compiled_options);
      SetForceTreeExec(saved_force);
      ASSERT_EQ(vm_run.outcome, tree_run.outcome)
          << "vm/tree disagreement, trial " << trial << "\nI:\n"
          << start.ToString(symbols_);
      if (vm_run.outcome == ChaseOutcome::kSuccess) {
        EXPECT_EQ(vm_run.steps, tree_run.steps) << "trial " << trial;
        EXPECT_EQ(vm_run.nulls_created, tree_run.nulls_created)
            << "trial " << trial;
        EXPECT_EQ(testing_util::CanonicalizedFingerprint(vm_run.instance),
                  testing_util::CanonicalizedFingerprint(tree_run.instance))
            << "vm/tree fingerprint divergence, trial " << trial << "\nI:\n"
            << start.ToString(symbols_);
      }
    }

    if (delta.outcome != ChaseOutcome::kSuccess) continue;

    // Restricted-chase results are unique up to homomorphic equivalence,
    // not isomorphism: trigger order may differ between the engines on
    // null-seeded inputs. Both results must satisfy the dependencies and
    // map into each other.
    EXPECT_TRUE(SatisfiesAll(naive.instance, *deps)) << "trial " << trial;
    EXPECT_TRUE(SatisfiesAll(delta.instance, *deps)) << "trial " << trial;
    EXPECT_TRUE(FindInstanceHomomorphism(naive.instance, delta.instance)
                    .has_value())
        << "trial " << trial << "\nI:\n" << start.ToString(symbols_);
    EXPECT_TRUE(FindInstanceHomomorphism(delta.instance, naive.instance)
                    .has_value())
        << "trial " << trial << "\nI:\n" << start.ToString(symbols_);

    std::unordered_set<uint64_t> roots;
    for (Value v : delta.instance.Nulls()) {
      EXPECT_EQ(delta.instance.ResolveValue(v), v)
          << "non-root null in resolved view, trial " << trial;
      EXPECT_TRUE(roots.insert(v.packed()).second);
    }
    // Every value of every resolved fact is a root too (constants
    // trivially, nulls by the invariant above).
    for (const Fact& fact : delta.instance.AllFacts()) {
      for (Value v : fact.tuple) {
        EXPECT_EQ(delta.instance.ResolveValue(v), v);
      }
    }
  }
}

// Streaming churn fuzz: a random ±Δ stream absorbed batch-by-batch by a
// StreamingChase must track a fresh engine chasing the net instance —
// dependency satisfaction and homomorphic equivalence after every batch —
// whatever the thread count and compile mode drawn for the trial. The
// universe is constant-only E facts, so the egd-bearing rule set only ever
// merges invented nulls: no churn order can fail the chase, and deleting
// an egd firing's body exercises the full re-chase fallback instead.
TEST_P(FuzzTest, ChurnStreamsMatchFreshEngineOnNetInstance) {
  Rng rng(GetParam() + 6000);
  const char* kRuleSets[] = {
      "E(x,z) & E(z,y) -> H(x,y).",
      "E(x,z) & E(z,y) -> H(x,y). H(x,y) -> exists w: E(x,w).",
      "E(x,y) -> exists z: H(x,z). H(x,y) & H(x,z) -> y = z.",
  };
  const RelationId e = schema_.FindRelation("E").value();
  for (int trial = 0; trial < 6; ++trial) {
    auto deps =
        ParseDependencies(kRuleSets[rng.UniformInt(3)], schema_, &symbols_);
    ASSERT_TRUE(deps.ok()) << deps.status().ToString();

    std::vector<Fact> universe;
    int pool = 4 + static_cast<int>(rng.UniformInt(5));
    for (int i = 0; i < 24; ++i) {
      Tuple tuple;
      for (int pos = 0; pos < 2; ++pos) {
        tuple.push_back(symbols_.InternConstant(
            "k" + std::to_string(rng.UniformInt(pool))));
      }
      universe.push_back({e, tuple});
    }
    std::sort(universe.begin(), universe.end());
    universe.erase(std::unique(universe.begin(), universe.end()),
                   universe.end());

    ChaseOptions options;
    options.max_steps = 5000;
    options.compile_plans = rng.UniformInt(2) == 1;
    const int kThreadChoices[] = {1, 2, 8};
    options.num_threads = kThreadChoices[rng.UniformInt(3)];

    ChurnOptions churn_options;
    churn_options.delete_rate = 0.2;
    churn_options.insert_rate = 0.2;
    churn_options.overlap = 0.5;
    churn_options.seed = GetParam() * 131 + trial;
    ChurnStream churn(universe, universe.size() / 2, churn_options);

    StreamingChase stream(&schema_, deps->tgds, deps->egds, &symbols_,
                          options);
    ASSERT_TRUE(stream.Initialize(churn.NetInstance(&schema_)).ok());

    for (int batch_idx = 0; batch_idx < 4; ++batch_idx) {
      ChurnBatch batch = churn.Next();
      auto stats = stream.ResumeWithDeltas(batch.adds, batch.deletes);
      ASSERT_TRUE(stats.ok())
          << stats.status().ToString() << "\ntrial " << trial << " batch "
          << batch_idx;
      Instance net = churn.NetInstance(&schema_);
      ChaseResult scratch =
          Chase(net, deps->tgds, deps->egds, &symbols_, options);
      ASSERT_EQ(scratch.outcome, ChaseOutcome::kSuccess)
          << "trial " << trial << " batch " << batch_idx;
      EXPECT_TRUE(SatisfiesAll(stream.instance(), *deps))
          << "trial " << trial << " batch " << batch_idx;
      testing_util::AssertHomEquivalent(
          stream.instance(), scratch.instance,
          "trial " + std::to_string(trial) + " batch " +
              std::to_string(batch_idx) + " threads " +
              std::to_string(options.num_threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace pdx
