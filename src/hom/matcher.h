#ifndef PDX_HOM_MATCHER_H_
#define PDX_HOM_MATCHER_H_

#include <functional>
#include <vector>

#include "logic/atom.h"
#include "relational/instance.h"

namespace pdx {

// A partial assignment of values to the variables 0..var_count-1 of one
// dependency or query. `bound[v]` says whether `values[v]` is meaningful.
struct Binding {
  std::vector<Value> values;
  std::vector<bool> bound;

  static Binding Empty(int var_count) {
    Binding b;
    b.values.resize(var_count);
    b.bound.assign(var_count, false);
    return b;
  }

  void Bind(VariableId v, Value value) {
    values[v] = value;
    bound[v] = true;
  }
};

// Enumerates homomorphisms from the conjunction `atoms` into `instance`
// that extend `partial`: assignments h of values to all variables occurring
// in `atoms` such that h(A) is a fact of `instance` for every atom A.
// Values are matched literally; labeled nulls in the instance behave like
// ordinary values (the standard naive-evaluation semantics used by the
// chase and by monotone query evaluation).
//
// Matching is resolve-on-read against the instance's value layer: raw
// tuple values are resolved to their equivalence-class roots before
// unification (see Instance::resolver()), so bindings reported to `fn`
// always hold resolved values — as do the values of `partial`, which are
// resolved on entry.
//
// `fn` is invoked once per complete match; returning false stops the
// enumeration. EnumerateMatches returns true iff enumeration was stopped by
// `fn` (i.e. "found and accepted early").
//
// The search picks, at every step, the pending atom with the fewest
// candidate tuples according to the instance's positional index, which
// keeps chase trigger detection near-linear on typical inputs.
bool EnumerateMatches(const std::vector<Atom>& atoms, int var_count,
                      const Instance& instance, const Binding& partial,
                      const std::function<bool(const Binding&)>& fn);

// One slice of a delta-restricted (semi-naive) enumeration: the matches
// that bind at least one body atom to a fact inside a DeltaView — a fact
// added since the delta's watermark, or a tuple an egd merge dirtied.
//
// The pivot atom `pivot` ranges over a sub-range of the delta. When
// `over_extras` is false, [begin, end) slices the additive tuple range
// [delta.begin, delta.end) of the pivot's relation, and the atoms before
// the pivot are confined to pre-delta facts, so a match over additive
// facts is produced under exactly one pivot: its *first* delta atom (in
// body order); atoms after it are unrestricted. Otherwise [begin, end)
// slices positions of delta.extras(relation) (merge-dirtied pre-existing
// tuples) and the other atoms are unrestricted, so a match touching
// several extras, or an extra and an additive fact, may be produced more
// than once; callers must be idempotent (chase triggers are: they
// re-check before firing). Matches entirely over pre-delta, undirtied
// facts are never produced; a caller that processed them in earlier
// rounds loses nothing.
struct DeltaPartition {
  size_t pivot = 0;
  size_t begin = 0;
  size_t end = 0;
  bool over_extras = false;
};

// Slices the delta-restricted enumeration of `atoms` into at most
// ~max_partitions independent partitions of comparable pivot width:
// additive pivots in atom order, then extras pivots. Enumerating the
// partitions one after another, in the returned order, visits exactly the
// matches EnumerateMatchesDeltaPlanned visits, in the same order — so a
// parallel caller that concatenates per-partition results in partition
// order reproduces the sequential enumeration bit for bit.
// Deterministic: a pure function of (atoms, delta, max_partitions).
std::vector<DeltaPartition> PartitionDeltaMatches(
    const std::vector<Atom>& atoms, const DeltaView& delta,
    size_t max_partitions);

// True if at least one homomorphism extending `partial` exists.
bool HasMatch(const std::vector<Atom>& atoms, int var_count,
              const Instance& instance, const Binding& partial);

// Convenience: HasMatch from the empty binding.
bool HasMatch(const std::vector<Atom>& atoms, int var_count,
              const Instance& instance);

namespace plan {
struct BodyPlan;
}  // namespace plan

// --- Plan-driven entry points (the dependency compiler, plan/ir.h) ------
//
// The chase engines, the streaming chase and the generic solver match
// through these: each executes a compiled BodyPlan (from
// plan::CompileBody) on the bytecode match VM, hom/match_vm.h. The plan's
// static join order, access paths and unification programs replace the
// interpreter's per-node fewest-candidates selection. The enumerated
// match *set* is EnumerateMatches's (restricted, for the delta entry
// points, as DeltaPartition describes); the *order* may differ, which
// every consumer tolerates (collect-then-apply phases gather full pending
// sets, and result contracts are stated on resolved views / canonical
// fingerprints). Callback and return semantics are EnumerateMatches's,
// and bindings reported to `fn` hold resolved values. The partial binding may bind any subset of
// variables: plans compiled under a different assumed-bound set stay
// correct (bind ops verify at runtime), only access-path quality is tuned
// to the compiled assumption.

// EnumerateMatches through `plan.full`.
bool EnumerateMatchesPlanned(const plan::BodyPlan& plan,
                             const Instance& instance, const Binding& partial,
                             const std::function<bool(const Binding&)>& fn);

// The whole delta-restricted enumeration (see DeltaPartition) through the
// plan's pivot-rotation variants: one partition per non-empty pivot, in
// PartitionDeltaMatches's order (additive pivots first, then extras).
bool EnumerateMatchesDeltaPlanned(
    const plan::BodyPlan& plan, const Instance& instance,
    const DeltaView& delta, const Binding& partial,
    const std::function<bool(const Binding&)>& fn);

// One partition's matches through `plan.variants[partition.pivot]`. The
// partition must have been built (PartitionDeltaMatches) against the same
// atom list the plan was compiled from. `instance` and `delta` must not be
// mutated while any partition of the same batch is being enumerated
// (pool workers share them read-only).
bool EnumerateMatchesDeltaPartitionPlanned(
    const plan::BodyPlan& plan, const Instance& instance,
    const DeltaView& delta, const DeltaPartition& partition,
    const Binding& partial, const std::function<bool(const Binding&)>& fn);

// HasMatch through `plan.full`.
bool HasMatchPlanned(const plan::BodyPlan& plan, const Instance& instance,
                     const Binding& partial);

}  // namespace pdx

#endif  // PDX_HOM_MATCHER_H_
