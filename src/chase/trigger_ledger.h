#ifndef PDX_CHASE_TRIGGER_LEDGER_H_
#define PDX_CHASE_TRIGGER_LEDGER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/concurrent_set.h"
#include "hom/matcher.h"
#include "logic/dependency.h"

namespace pdx {

// Fingerprint of a fired trigger: dependency index plus the values assigned
// to the universally quantified body variables. Used by the oblivious chase
// to fire every trigger exactly once, and by the chase journal to keep one
// live entry per firing across deletion/re-derivation cycles.
inline uint64_t TriggerFingerprint(size_t tgd_index, const Tgd& tgd,
                                   const Binding& binding) {
  uint64_t h = 0xcbf29ce484222325ull ^ (tgd_index * 0x9e3779b97f4a7c15ull);
  for (VariableId v = 0; v < tgd.var_count; ++v) {
    if (!binding.bound[v]) continue;
    uint64_t x = binding.values[v].packed();
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    h = (h ^ x) * 0x100000001b3ull;
  }
  return h;
}

// Raw-row variant: fingerprints `row[0, n)` at the positions where `skip`
// is false (the universal variables — existential slots hold fresh nulls
// that must not enter the fingerprint, or a re-derived firing could never
// re-admit). Produces the same hash as the Binding overload for a binding
// whose bound mask is the complement of `skip`.
inline uint64_t TriggerFingerprintRow(size_t dep_index, const Value* row,
                                      size_t n,
                                      const std::vector<bool>& skip) {
  uint64_t h = 0xcbf29ce484222325ull ^ (dep_index * 0x9e3779b97f4a7c15ull);
  for (size_t v = 0; v < n; ++v) {
    if (v < skip.size() && skip[v]) continue;
    uint64_t x = row[v].packed();
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    h = (h ^ x) * 0x100000001b3ull;
  }
  return h;
}

// The once-per-trigger ledger, scoped by value generation: every
// fingerprint is additionally indexed under the null roots its binding
// used. When an egd merge absorbs a class, its roots are *retired* —
// bindings over them can never be produced again (the matcher now resolves
// those values to the winning root) — so every fingerprint of that
// generation is dropped wholesale. Long egd-heavy chases therefore hold
// only the fingerprints valid under the current resolution instead of the
// full firing history. (Triggers over the merged values refire with their
// post-merge binding, exactly as they did when Substitute rewrote the
// values out of existence.)
//
// Deletion propagation added a second retirement path: Retire(fp) drops a
// single fingerprint when the firing it names dies (its body facts were
// retracted), making the trigger re-admittable if the same body match ever
// re-forms — delete → re-insert fires exactly once more, not zero times
// and not twice (stressed in trigger_ledger_test).
//
// The fingerprint set is a sharded concurrent set, so pool workers can
// filter against it (Contains) during the pooled collect phase while the
// apply loop inserts; the by-root generation index stays sequential — it
// is only written from the apply loop (RecordRoots / Insert) and read
// between rounds (RetireRoots).
class TriggerLedger {
 public:
  // Claims the fingerprint; true iff this caller won it (the trigger is
  // new and must fire exactly once). Safe from any thread.
  bool Admit(uint64_t fp) { return fired_.Insert(fp); }

  // Indexes an admitted fingerprint under the null roots of its binding so
  // RetireRoots can drop the whole generation. Sequential (apply phase).
  void RecordRoots(uint64_t fp, const Tgd& tgd, const Binding& binding) {
    for (VariableId v = 0; v < tgd.var_count; ++v) {
      if (binding.bound[v] && binding.values[v].is_null()) {
        by_root_[binding.values[v].packed()].push_back(fp);
      }
    }
  }

  // Sequential admission + indexing (the barrier-mode fire loop). Returns
  // true if the trigger is new and must fire.
  bool Insert(uint64_t fp, const Tgd& tgd, const Binding& binding) {
    if (!Admit(fp)) return false;
    RecordRoots(fp, tgd, binding);
    return true;
  }

  // True if the trigger already fired. Safe for concurrent worker-side
  // filtering during the collect phase.
  bool Contains(uint64_t fp) const { return fired_.Contains(fp); }

  // Drops one fingerprint: the firing it names died (deletion propagation
  // killed its body), so an identical future trigger must be re-admitted.
  // Returns true if the fingerprint was present. Stale by_root_ references
  // to a retired fingerprint are harmless: RetireRoots erases from the
  // same set, and double-erase is a no-op.
  bool Retire(uint64_t fp) { return fired_.Erase(fp); }

  // Drops every fingerprint whose binding referenced a retired root.
  void RetireRoots(const std::vector<Value>& retired) {
    for (const Value& v : retired) {
      auto it = by_root_.find(v.packed());
      if (it == by_root_.end()) continue;
      for (uint64_t fp : it->second) fired_.Erase(fp);
      by_root_.erase(it);
    }
  }

  size_t size() const { return fired_.size(); }

 private:
  ConcurrentFingerprintSet fired_;
  std::unordered_map<uint64_t, std::vector<uint64_t>> by_root_;
};

}  // namespace pdx

#endif  // PDX_CHASE_TRIGGER_LEDGER_H_
