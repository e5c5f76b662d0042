#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Seeded generators of everything the benchmark feeds pdx. The program
// only ever receives setting text and fact text; the same seed gives the
// same text.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// splitmix64: small, deterministic across platforms. The seed is mixed
// first, so nearby seeds give unrelated streams.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix(seed + 0x9e3779b97f4a7c15ull)) {}
  uint64_t Next() { return Mix(state_ += 0x9e3779b97f4a7c15ull); }
  uint32_t Uniform(uint32_t bound) {
    return static_cast<uint32_t>(Next() % bound);
  }
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

 private:
  static uint64_t Mix(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  uint64_t state_;
};

// --- Settings (setting-file text, pde/setting_file.h) --------------------

// Join + existential pipeline: E∘E -> H, then H(x,y) -> ∃w F(y,w).
std::string PipelineSetting();
// FD/egd-heavy shape: one existential shared by two head atoms plus two key
// egds that merge the invented nulls in cascades.
std::string EgdSetting();
// The paper's Section 1 genomics peers.
std::string GenomicsSetting();
// Relay: Σ_st E→R1, Σ_ts R1→E, Σ_t the copy chain R1→R2→…→R6.
std::string RelaySetting();
// The relay without its Σ_t chain. Σ_t is full and never feeds Σ_ts or
// Σ_st, so (I, J) has a relay solution iff it has one here, and here the
// Figure 3 algorithm applies.
std::string RelayCoreSetting();

// --- Facts ----------------------------------------------------------------

// E(u, v) facts, one per line: every node u of `nodes` gets `out_degree`
// distinct random successors. The fixed out-degree keeps the size of the
// chase (join fan-out, egd merges) nearly the same for every seed.
std::string EdgeFacts(uint64_t seed, int nodes, int out_degree);

struct Protein {
  std::string acc;
  std::string name;
  std::string organism;
  std::vector<std::string> go_terms;  // distinct
};

std::vector<Protein> MakeProteins(uint64_t seed, int count, int annotations,
                                  const std::string& prefix);
// The source peer's facts about one protein: SPProtein and SPAnnotation.
std::string ProteinSourceFacts(const Protein& protein);
// The target peer's facts about it, every one backed by the source (so the
// Σ_ts check passes and no Σ_st trigger invents a null): Protein and one
// Annotation per GO term.
std::string ProteinTargetFacts(const Protein& protein);

// Distinct relay edges as fact text "E(u, v).": a stable part no writer
// touches and one disjoint slice per writer.
struct RelayUniverse {
  std::vector<std::string> stable;
  std::vector<std::vector<std::string>> slices;
};
RelayUniverse MakeRelayUniverse(uint64_t seed, int nodes, int stable_edges,
                                int writers, int slice_edges);

// "E(u, v)." -> "R6(u, v)." (the relay's derived copy).
std::string RelayDerived(const std::string& edge_fact);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
