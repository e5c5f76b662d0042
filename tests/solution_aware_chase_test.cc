#include "chase/solution_aware_chase.h"

#include "gtest/gtest.h"
#include "logic/dependency_graph.h"
#include "logic/parser.h"
#include "pde/setting.h"
#include "pde/solution.h"
#include "relational/instance_io.h"

namespace pdx {
namespace {

class SolutionAwareChaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.AddRelation("E", 2).ok());
    ASSERT_TRUE(schema_.AddRelation("H", 2).ok());
    e_ = schema_.FindRelation("E").value();
    h_ = schema_.FindRelation("H").value();
    a_ = symbols_.InternConstant("a");
    b_ = symbols_.InternConstant("b");
    c_ = symbols_.InternConstant("c");
  }

  std::vector<Tgd> ParseTgds(const char* text) {
    auto deps = ParseDependencies(text, schema_, &symbols_);
    EXPECT_TRUE(deps.ok()) << deps.status().ToString();
    return std::move(deps).value().tgds;
  }

  Schema schema_;
  SymbolTable symbols_;
  RelationId e_ = 0, h_ = 0;
  Value a_, b_, c_;
};

TEST_F(SolutionAwareChaseTest, WitnessesComeFromTheSolution) {
  std::vector<Tgd> tgds = ParseTgds("E(x,y) -> exists z: H(y,z).");
  Instance start(&schema_);
  start.AddFact(e_, {a_, b_});
  // The "solution" contains start, satisfies the tgd, and offers c as the
  // witness.
  Instance solution = start;
  solution.AddFact(h_, {b_, c_});
  ChaseResult result = SolutionAwareChase(start, tgds, {}, solution);
  EXPECT_EQ(result.outcome, ChaseOutcome::kSuccess);
  EXPECT_TRUE(result.instance.Contains(h_, {b_, c_}));
  EXPECT_EQ(result.nulls_created, 0);
  EXPECT_FALSE(result.instance.HasNulls());
}

TEST_F(SolutionAwareChaseTest, ResultIsContainedInSolution) {
  std::vector<Tgd> tgds =
      ParseTgds("E(x,z) & E(z,y) -> H(x,y). H(x,y) -> exists z: H(y,z).");
  Instance start(&schema_);
  start.AddFact(e_, {a_, b_});
  start.AddFact(e_, {b_, a_});
  // A generous solution: complete H over {a, b}.
  Instance solution = start;
  for (Value u : {a_, b_}) {
    for (Value v : {a_, b_}) solution.AddFact(h_, {u, v});
  }
  ChaseResult result = SolutionAwareChase(start, tgds, {}, solution);
  EXPECT_EQ(result.outcome, ChaseOutcome::kSuccess);
  EXPECT_TRUE(result.instance.IsSubsetOf(solution));
  EXPECT_TRUE(start.IsSubsetOf(result.instance));
}

// Lemma 1's point: the solution-aware chase terminates even for tgd sets
// whose standard chase diverges, because witnesses are drawn from the
// finite solution instead of being invented.
TEST_F(SolutionAwareChaseTest, TerminatesWhereStandardChaseDiverges) {
  std::vector<Tgd> tgds = ParseTgds("H(x,y) -> exists z: H(y,z).");
  ASSERT_FALSE(IsWeaklyAcyclic(tgds, schema_));
  Instance start(&schema_);
  start.AddFact(h_, {a_, b_});
  Instance solution = start;
  solution.AddFact(h_, {b_, b_});  // b's successor is b
  ChaseResult result = SolutionAwareChase(start, tgds, {}, solution);
  EXPECT_EQ(result.outcome, ChaseOutcome::kSuccess);
  EXPECT_TRUE(result.instance.IsSubsetOf(solution));
  // Polynomially bounded: at most |solution| facts were addable.
  EXPECT_LE(result.steps,
            static_cast<int64_t>(solution.fact_count()));
}

TEST_F(SolutionAwareChaseTest, ChaseLengthBoundedBySolutionSize) {
  // Every solution-aware chase step adds at least one fact of the
  // solution, so steps <= |solution| - |start| for tgd-only chases.
  std::vector<Tgd> tgds =
      ParseTgds("E(x,y) -> H(x,y). H(x,y) -> exists z: H(y,z).");
  Instance start(&schema_);
  start.AddFact(e_, {a_, b_});
  Instance solution = start;
  for (Value u : {a_, b_, c_}) {
    for (Value v : {a_, b_, c_}) solution.AddFact(h_, {u, v});
  }
  ChaseResult result = SolutionAwareChase(start, tgds, {}, solution);
  EXPECT_EQ(result.outcome, ChaseOutcome::kSuccess);
  EXPECT_LE(result.steps, static_cast<int64_t>(solution.fact_count() -
                                               start.fact_count()));
}

// Lemma 2, end to end: from any solution J', the solution-aware chase of
// (I, J) with Σ_st extracts a small solution contained in J'. (With
// Σ_t = ∅, chasing Σ_st suffices: Σ_ts holds on any subset of J' whose
// Σ_st obligations are met, because its LHS matches are a subset of J''s.)
TEST_F(SolutionAwareChaseTest, Lemma2SmallSolutionInsideAnySolution) {
  SymbolTable symbols;
  auto setting = PdeSetting::Create(
      {{"E", 2}}, {{"H", 2}},
      "E(x,z) & E(z,y) -> H(x,y).", "H(x,y) -> E(x,y).", "", &symbols);
  ASSERT_TRUE(setting.ok());
  auto source = ParseInstance("E(a,b). E(b,c). E(a,c).", setting->schema(),
                              &symbols);
  ASSERT_TRUE(source.ok());
  // A deliberately fat solution.
  auto fat = ParseInstance("H(a,b). H(b,c). H(a,c).", setting->schema(),
                           &symbols);
  ASSERT_TRUE(fat.ok());
  ASSERT_TRUE(IsSolution(*setting, *source, setting->EmptyInstance(), *fat,
                         symbols));

  Instance start = setting->CombineInstances(*source,
                                             setting->EmptyInstance());
  Instance solution_combined = setting->CombineInstances(*source, *fat);
  ChaseResult chased = SolutionAwareChase(start, setting->st_tgds(), {},
                                          solution_combined);
  ASSERT_EQ(chased.outcome, ChaseOutcome::kSuccess);
  Instance small = setting->TargetPart(chased.instance);
  EXPECT_TRUE(small.IsSubsetOf(*fat));
  EXPECT_LT(small.fact_count(), fat->fact_count());
  EXPECT_TRUE(IsSolution(*setting, *source, setting->EmptyInstance(), small,
                         symbols));
  EXPECT_EQ(small.ToString(symbols), "H(a,c).");
}

TEST_F(SolutionAwareChaseTest, NoApplicableStepLeavesStartUnchanged) {
  std::vector<Tgd> tgds = ParseTgds("E(x,y) -> H(x,y).");
  Instance start(&schema_);
  start.AddFact(e_, {a_, b_});
  start.AddFact(h_, {a_, b_});
  Instance solution = start;
  ChaseResult result = SolutionAwareChase(start, tgds, {}, solution);
  EXPECT_EQ(result.outcome, ChaseOutcome::kSuccess);
  EXPECT_EQ(result.steps, 0);
  EXPECT_TRUE(result.instance.FactsEqual(start));
}

// Pooled collection: the solution-aware chase invents no nulls —
// witnesses come from the solution — so collecting triggers on a pool must
// keep results BIT-identical to the sequential run (same fingerprint, not
// just isomorphic), at every thread count.
TEST_F(SolutionAwareChaseTest, PooledRunsKeepResultsBitIdentical) {
  Schema wide;
  SymbolTable wide_symbols;
  for (const char* name : {"A0", "B0", "A1", "B1"}) {
    ASSERT_TRUE(wide.AddRelation(name, 2).ok());
  }
  auto deps = ParseDependencies(
      "A0(x,y) -> exists w: B0(x,w). A1(x,y) -> exists w: B1(x,w).", wide,
      &wide_symbols);
  ASSERT_TRUE(deps.ok()) << deps.status().ToString();
  auto node = [&](const std::string& tag) {
    return wide_symbols.InternConstant(tag);
  };
  Instance start(&wide);
  Instance solution(&wide);
  for (int i = 0; i < 24; ++i) {
    std::string u = "u" + std::to_string(i), v = "v" + std::to_string(i);
    for (RelationId a : {0, 2}) {
      start.AddFact(a, {node(u), node(v)});
      solution.AddFact(a, {node(u), node(v)});
      // Witness facts the chase may copy: B_i(u, w).
      solution.AddFact(a + 1, {node(u), node("w" + std::to_string(i))});
    }
  }
  ChaseResult ref = SolutionAwareChase(start, deps->tgds, {}, solution);
  ASSERT_EQ(ref.outcome, ChaseOutcome::kSuccess);
  EXPECT_GT(ref.steps, 0);
  for (int threads : {2, 8}) {
    ChaseOptions options;
    options.num_threads = threads;
    ChaseResult got =
        SolutionAwareChase(start, deps->tgds, {}, solution, options);
    ASSERT_EQ(got.outcome, ref.outcome) << "threads " << threads;
    EXPECT_EQ(got.steps, ref.steps) << "threads " << threads;
    EXPECT_EQ(got.instance.CanonicalFingerprint(),
              ref.instance.CanonicalFingerprint())
        << "threads " << threads;
    EXPECT_TRUE(got.instance.FactsEqual(ref.instance)) << "threads " << threads;
  }
}

}  // namespace
}  // namespace pdx
