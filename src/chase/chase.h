#ifndef PDX_CHASE_CHASE_H_
#define PDX_CHASE_CHASE_H_

#include <cstdint>
#include <unordered_map>
#include <string>
#include <vector>

#include "logic/dependency.h"
#include "relational/instance.h"
#include "relational/value.h"

namespace pdx {

// How a chase run ended.
enum class ChaseOutcome {
  kSuccess,           // fixpoint reached, all dependencies satisfied
  kFailed,            // an egd equated two distinct constants
  kBudgetExhausted,   // step budget hit (e.g. non-terminating chase)
};

// Which chase variant to run.
enum class ChaseStrategy {
  // The restricted (standard) chase of [9], delta-driven: a tgd fires for
  // a body homomorphism only if no head extension already exists, and the
  // fixpoint is computed over a worklist of dirty (relation, watermark)
  // pairs — each round only evaluates triggers whose body touches a fact
  // added since the previous round or dirtied by an egd merge. Egd steps
  // are union-find merges in the instance's value layer
  // (Instance::MergeValues): O(α) unions that mark only the dirty
  // equivalence classes, never rewriting tuples or invalidating
  // watermarks. Changes performance only, never the chase result
  // (cross-validated in chase_strategies_test and cross_validation_test,
  // orders of magnitude faster at scale per bench_chase), so it is the
  // default.
  kRestricted,
  // The restricted chase re-scanning the whole instance to find each
  // trigger and applying egds via Substitute's eager relation rebuild.
  // Kept as the cross-validation baseline and for A/B benches against the
  // union-find value layer.
  kRestrictedNaive,
  // The oblivious chase, delta-driven: every body homomorphism fires
  // exactly once (tracked by a trigger-fingerprint set), whether or not a
  // witness already exists. Produces larger (but still universal) results;
  // terminates on weakly acyclic sets.
  kOblivious,
};

class ChaseJournal;

struct ChaseOptions {
  // Upper bound on the number of chase steps before giving up. Weakly
  // acyclic inputs terminate well under this for the sizes we run; the
  // budget exists so that non-weakly-acyclic inputs fail loudly instead of
  // looping.
  int64_t max_steps = 1'000'000;

  ChaseStrategy strategy = ChaseStrategy::kRestricted;

  // Worker threads for the delta engines (kRestricted/kOblivious):
  // 0 = hardware concurrency, 1 = the fully sequential path. With more
  // than one, each round's tgd phase runs on a pool: workers collect
  // triggers and pre-build their head rows, and collection of
  // footprint-compatible dependencies overlaps the current apply; egd
  // passes fan their trigger collection across the same pool. Every
  // decision that writes — the restricted re-check, the oblivious ledger
  // insert, each fresh null — stays on the calling thread in enumeration
  // order, so a pooled run is bit-identical to the sequential one: same
  // outcome, steps, nulls_created and instance, null ids included (see
  // DESIGN.md "Parallel execution model"). Either is deterministic from
  // run to run.
  int num_threads = 0;

  // Compile the setting into match/apply plans (plan/ir.h) and execute
  // trigger enumeration, head filters and the egd fixpoint through them
  // (kRestricted/kOblivious; kRestrictedNaive always interprets — it is
  // the baseline). Plans are fetched from the process-wide PlanCache, so
  // repeated chases of one setting compile it exactly once. The chase
  // result's resolved view and canonical fingerprint are invariant;
  // enumeration order (hence raw tuple order and fresh-null identities)
  // may differ from the interpreter's. The PDX_FORCE_INTERPRETER
  // environment variable overrides this to false process-wide
  // (plan/compiler.h, ForceInterpreter).
  bool compile_plans = true;

  // Incremental resume (kRestricted only): when non-null, the first
  // round's delta covers only the facts added to the start instance after
  // this watermark, instead of the whole instance. Correct exactly when
  // the pre-watermark state already satisfies every dependency being
  // chased (it was itself chased to fixpoint and only AddFact happened
  // since — the pdxd generation store's single-writer discipline). The
  // other strategies ignore it and fall back to the full first scan,
  // which is always correct, just not amortized. The pointee must outlive
  // the call.
  const InstanceWatermark* resume_from = nullptr;

  // Auto-compaction of merge-heavy raw stores (kRestricted only): when the
  // fraction of raw tuples that are duplicates under resolution exceeds
  // this ratio — and the raw store holds at least compact_min_facts tuples
  // — the chase swaps in CompactResolved(keep_resolver=true) and restarts
  // its watermark (the extra rescan round fires nothing: satisfied
  // triggers stay satisfied). Reclaims memory on long egd-heavy runs
  // without changing any result. Set the ratio outside (0, 1) to disable.
  double compact_duplicate_ratio = 0.5;
  size_t compact_min_facts = 4096;

  // Firing journal for deletion propagation (kRestricted only; see
  // chase/journal.h and chase/stream.h). When non-null, every applied tgd
  // trigger and every successful egd merge is recorded — with its full
  // extended binding — from the sequential apply phases, so a later ±Δ
  // batch (StreamingChase::ResumeWithDeltas) can count surviving
  // justifications per derived fact and propagate retractions. The other
  // strategies ignore it: the naive engine has no delta discipline to
  // resume, and the oblivious ledger is a per-run local (an oblivious run
  // cannot be resumed at all). Null keeps the hot path entirely free of
  // journaling. The pointee must outlive the call.
  ChaseJournal* journal = nullptr;
};

struct ChaseResult {
  ChaseOutcome outcome = ChaseOutcome::kSuccess;
  Instance instance;       // the chased instance (final state even on failure)
  int64_t steps = 0;       // number of chase steps applied
  int64_t nulls_created = 0;
  int64_t compactions = 0; // CompactResolved swaps (see ChaseOptions)
  std::string failure;     // human-readable description when kFailed
  // Egd merge log of the Substitute-based engine (kRestrictedNaive): each
  // substituted null, keyed by Value::packed(), maps to the value it was
  // replaced by (which may itself have been merged later; Resolve()
  // follows the chain). The union-find engines leave this empty — their
  // merges live in instance.resolver(), which Resolve() also consults.
  std::unordered_map<uint64_t, Value> merges;

  explicit ChaseResult(Instance i) : instance(std::move(i)) {}

  // The final value a given input value denotes in `instance`: resolves
  // through the instance's value layer, then follows the Substitute merge
  // chain. Identity for values never merged.
  Value Resolve(Value v) const {
    v = instance.ResolveValue(v);
    auto it = merges.find(v.packed());
    while (it != merges.end()) {
      v = it->second;
      it = merges.find(v.packed());
    }
    return v;
  }
};

// Runs the restricted (standard) chase of `start` with the given tgds and
// egds, in the sense of [9]: a tgd fires for a body homomorphism only if no
// head extension already exists; fresh labeled nulls (from `symbols`)
// witness existential variables; an egd trigger merges a null into the
// other value or fails on a constant/constant clash.
//
// The chase is fair: it loops over dependencies round-robin until a full
// pass finds no applicable trigger.
ChaseResult Chase(const Instance& start, const std::vector<Tgd>& tgds,
                  const std::vector<Egd>& egds, SymbolTable* symbols,
                  const ChaseOptions& options = ChaseOptions());

// Move-in overload: consumes `start`. The COW relation stores stay
// uniquely owned, so the chase mutates them in place instead of
// re-materializing every touched relation — the streaming resume path
// (chase/stream.h) hands its own instance back in every ±Δ batch and
// would otherwise pay a second O(instance) copy per batch.
ChaseResult Chase(Instance&& start, const std::vector<Tgd>& tgds,
                  const std::vector<Egd>& egds, SymbolTable* symbols,
                  const ChaseOptions& options = ChaseOptions());

// Convenience overload without egds.
ChaseResult Chase(const Instance& start, const std::vector<Tgd>& tgds,
                  SymbolTable* symbols,
                  const ChaseOptions& options = ChaseOptions());

// Outcome of a union-find egd fixpoint (see RunEgdsToFixpointDelta).
struct EgdFixpointOutcome {
  bool failed = false;             // constant/constant clash
  bool budget_exhausted = false;   // max_steps merges applied
  std::string failure;             // set when failed
  int64_t steps = 0;               // merges applied
  // Total dirty (relation, tuple) entries the merges reported: an upper
  // bound on the resolved duplicates the fixpoint can have created, used
  // by the chase's auto-compaction trigger.
  int64_t dirtied = 0;
  // Values whose resolution changed across all merges (the losing
  // classes): the oblivious chase retires trigger fingerprints indexed
  // under these roots.
  std::vector<Value> retired;
};

class ThreadPool;

namespace plan {
struct EgdPlan;
}  // namespace plan

// Applies `egds` to fixpoint over the delta of `instance` beyond `mark`
// using union-find merges (Instance::MergeValues). The first pass pivots
// on the facts added since `mark`; since any trigger newly violated by a
// merge must touch a tuple whose resolved content that merge changed,
// each subsequent pass pivots only on the tuples the previous pass
// dirtied, until no merge fires. All dirty tuple indexes are accumulated
// into `extras` (one vector per relation, appended, possibly with
// duplicates) so the caller's tgd round can re-examine exactly those
// tuples. `symbols` is only used to render the failure message and may be
// null. Shared by the delta chase engines, the solution-aware chase and
// the pde solvers' branch-local fixpoints.
//
// Each pass is a batched collect-then-apply per egd: all of the egd's
// violated triggers are enumerated up front against the state before its
// batch (fanned across `pool`'s workers when it is non-null) and their
// merges applied sequentially, skipping triggers an earlier merge already
// resolved.
// Triggers a merge newly enables are caught by the next pass's dirty
// frontier. Every union lowers the class count by exactly one, so the
// number of successful merges is fixed by the fixpoint closure; only the
// union order (hence null-root identity) depends on the enumeration
// order, which every resolved view is invariant under.
//
// With non-null `egd_plans` (compiled plans indexed parallel to `egds`),
// trigger enumeration executes through the dependency compiler's plans
// instead of the interpreter; the fixpoint closure is unchanged.
//
// With a non-null `journal`, every successful merge is recorded under the
// trigger binding that forced it (merges are applied on the calling
// thread only), feeding deletion propagation's egd-death detection
// (chase/stream.h).
EgdFixpointOutcome RunEgdsToFixpointDelta(
    const std::vector<Egd>& egds, Instance* instance,
    const InstanceWatermark& mark, int64_t max_steps,
    const SymbolTable* symbols, std::vector<std::vector<int>>* extras,
    ThreadPool* pool = nullptr,
    const std::vector<plan::EgdPlan>* egd_plans = nullptr,
    ChaseJournal* journal = nullptr);

// True if `instance` satisfies the tgd / egd under standard first-order
// semantics (nulls behave as ordinary values).
bool SatisfiesTgd(const Instance& instance, const Tgd& tgd);
bool SatisfiesEgd(const Instance& instance, const Egd& egd);
bool SatisfiesDisjunctiveTgd(const Instance& instance,
                             const DisjunctiveTgd& tgd);

// True if all dependencies of `deps` are satisfied.
bool SatisfiesAll(const Instance& instance, const DependencySet& deps);

}  // namespace pdx

#endif  // PDX_CHASE_CHASE_H_
