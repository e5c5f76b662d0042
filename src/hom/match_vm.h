#ifndef PDX_HOM_MATCH_VM_H_
#define PDX_HOM_MATCH_VM_H_

// The register-style bytecode VM: the one executor behind the planned
// match entry points of hom/matcher.h. It runs the linear programs
// plan/bytecode.h lowers from compiled BodyPlans, iteratively: one frame
// per join level (candidate cursor + trail mark), no recursion, no
// virtual dispatch, and no heap allocation in steady state (contexts are
// pooled per thread and nesting depth).
//
// The VM enumerates the match set the interpreting matcher
// (EnumerateMatches) enumerates, including the delta-pivot confinement of
// DeltaPartition and the bind-or-check tolerance for callers whose
// partial binding differs from the compiled assumption. That equivalence
// is tested in plan_compiler_test (against EnumerateMatches and the
// semi-naive definition), and end to end by every differential test that
// checks a planned engine against the naive chase, kRestrictedNaive.

#include <functional>

#include "hom/matcher.h"
#include "plan/ir.h"

namespace pdx {

// EnumerateMatchesPlanned through plan.code (full program).
bool VmEnumerateMatches(const plan::BodyPlan& plan, const Instance& instance,
                        const Binding& partial,
                        const std::function<bool(const Binding&)>& fn);

// HasMatchPlanned through plan.code: existence only, stopping at the
// first match. Single-level fully-bound plans (the chase's dominant
// head-satisfaction shape on merge-free instances) collapse to one
// dedup-set point lookup with no context lease or binding copy.
bool VmHasMatch(const plan::BodyPlan& plan, const Instance& instance,
                const Binding& partial);

// EnumerateMatchesDeltaPartitionPlanned through the variant entry point.
bool VmEnumerateMatchesDeltaPartition(
    const plan::BodyPlan& plan, const Instance& instance,
    const DeltaView& delta, const DeltaPartition& partition,
    const Binding& partial, const std::function<bool(const Binding&)>& fn);

}  // namespace pdx

#endif  // PDX_HOM_MATCH_VM_H_
