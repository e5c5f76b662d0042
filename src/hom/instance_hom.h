#ifndef PDX_HOM_INSTANCE_HOM_H_
#define PDX_HOM_INSTANCE_HOM_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "relational/instance.h"
#include "relational/tuple.h"

namespace pdx {

// A mapping from labeled nulls (keyed by Value::packed()) to values;
// constants are implicitly mapped to themselves.
using NullAssignment = std::unordered_map<uint64_t, Value>;

// One block of tuples of an instance (Definition 10): either a maximal set
// of facts whose nulls form one connected component of the graph of nulls,
// or the set of all null-free facts.
struct Block {
  std::vector<Fact> facts;
  std::vector<Value> nulls;  // distinct nulls of the block (empty for the
                             // null-free block)
};

// Decomposes `instance` into its blocks. The null-free block is included
// only if non-empty. Facts appear in exactly one block.
std::vector<Block> DecomposeIntoBlocks(const Instance& instance);

// Searches for a homomorphism from `block` into `target`: an assignment of
// the block's nulls such that every fact maps into `target` (constants map
// to themselves). Returns the assignment, or nullopt.
std::optional<NullAssignment> FindBlockHomomorphism(const Block& block,
                                                    const Instance& target);

// Searches for a homomorphism from `source` to `target` (constants fixed,
// nulls mapped freely). Per Proposition 1 this factorizes over blocks, so
// the cost is exponential only in the largest per-block null count.
// Returns the combined assignment for all nulls, or nullopt.
std::optional<NullAssignment> FindInstanceHomomorphism(
    const Instance& source, const Instance& target);

// Applies `assignment` to every fact of `source` (constants and unassigned
// nulls are kept), producing the homomorphic image instance.
Instance ApplyAssignment(const Instance& source,
                         const NullAssignment& assignment);

// Canonical renumbering of an instance's nulls: returns an instance with
// the same resolved facts whose nulls are Value::Null(0..k-1), numbered in
// an order determined by the facts' structure alone (color refinement over
// the null co-occurrence structure, plus individualization of residual
// symmetric classes). Instances equal up to a bijective renaming of nulls
// canonicalize to literally equal fact sets, so comparing
// CanonicalizeNulls(a).CanonicalFingerprint() against b's is a sound
// isomorphism check that — unlike the raw CanonicalFingerprint(), whose
// sort tie-breaks on original null ids — does not depend on which ids a
// run's enumeration order happened to hand out. Completeness caveat:
// members of a color class the refinement cannot split are individualized
// in original-id order; for truly automorphic nulls (every case the chase
// produces) the result is id-independent.
Instance CanonicalizeNulls(const Instance& instance);

}  // namespace pdx

#endif  // PDX_HOM_INSTANCE_HOM_H_
