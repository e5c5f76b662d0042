#include "inputs.h"

#include <algorithm>
#include <set>

namespace perfbench {

std::string PipelineSetting() {
  return "[source]\nE/2\n[target]\nH/2\nF/2\n"
         "[st]\nE(x,z) & E(z,y) -> H(x,y).\n"
         "[t]\nH(x,y) -> exists w: F(y,w).\n";
}

std::string EgdSetting() {
  return "[source]\nE/2\n[target]\nH/2\nF/2\n"
         "[st]\nE(x,y) -> exists z: H(x,z) & F(y,z).\n"
         "[t]\nH(x,y) & H(x,z) -> y = z.\nF(x,y) & F(x,z) -> y = z.\n";
}

std::string GenomicsSetting() {
  return "[source]\nSPProtein/3\nSPAnnotation/2\n"
         "[target]\nProtein/2\nOrganism/2\nAnnotation/3\n"
         "[st]\n"
         "SPProtein(a,n,o) -> Protein(a,n) & Organism(a,o).\n"
         "SPAnnotation(a,g) -> exists e: Annotation(a,g,e).\n"
         "[ts]\n"
         "Protein(a,n) -> exists o: SPProtein(a,n,o).\n"
         "Annotation(a,g,e) -> exists n,o: SPProtein(a,n,o) & "
         "SPAnnotation(a,g).\n";
}

std::string RelayCoreSetting() {
  return "[source]\nE/2\n[target]\nR1/2\n"
         "[st]\nE(x,y) -> R1(x,y).\n"
         "[ts]\nR1(x,y) -> E(x,y).\n";
}

std::string RelaySetting() {
  std::string text =
      "[source]\nE/2\n[target]\nR1/2\nR2/2\nR3/2\nR4/2\nR5/2\nR6/2\n"
      "[st]\nE(x,y) -> R1(x,y).\n"
      "[ts]\nR1(x,y) -> E(x,y).\n"
      "[t]\n";
  for (char i = '2'; i <= '6'; ++i) {
    text += {'R', static_cast<char>(i - 1)};
    text += "(x,y) -> R";
    text += i;
    text += "(x,y).\n";
  }
  return text;
}

std::string EdgeFacts(uint64_t seed, int nodes, int out_degree) {
  Rng rng(seed);
  std::string text;
  text.reserve(static_cast<size_t>(nodes) * out_degree * 20);
  std::vector<uint32_t> targets;
  for (int u = 0; u < nodes; ++u) {
    targets.clear();
    while (static_cast<int>(targets.size()) < out_degree) {
      uint32_t v = rng.Uniform(nodes);
      if (std::find(targets.begin(), targets.end(), v) == targets.end()) {
        targets.push_back(v);
      }
    }
    for (uint32_t v : targets) {
      text += "E(n";
      text += std::to_string(u);
      text += ", n";
      text += std::to_string(v);
      text += ").\n";
    }
  }
  return text;
}

std::vector<Protein> MakeProteins(uint64_t seed, int count, int annotations,
                                  const std::string& prefix) {
  static const char* const kOrganisms[] = {
      "human", "mouse", "rat", "yeast", "zebrafish", "fly", "worm", "ecoli"};
  static const char* const kNames[] = {"kinase", "insulin", "hemoglobin",
                                       "actin", "tubulin", "myosin",
                                       "ligase", "protease"};
  Rng rng(seed);
  std::vector<Protein> proteins;
  proteins.reserve(count);
  for (int p = 0; p < count; ++p) {
    Protein protein;
    protein.acc = prefix + std::to_string(p);
    protein.name = std::string(kNames[rng.Uniform(8)]) + "_" +
                   std::to_string(p);
    protein.organism = kOrganisms[rng.Uniform(8)];
    std::set<uint32_t> terms;
    while (static_cast<int>(terms.size()) < annotations) {
      terms.insert(rng.Uniform(20000));
    }
    for (uint32_t term : terms) {
      protein.go_terms.push_back("GO_" + std::to_string(term));
    }
    proteins.push_back(std::move(protein));
  }
  return proteins;
}

std::string ProteinSourceFacts(const Protein& protein) {
  std::string text = "SPProtein(" + protein.acc + ", " + protein.name + ", " +
                     protein.organism + ").\n";
  for (const std::string& go : protein.go_terms) {
    text += "SPAnnotation(" + protein.acc + ", " + go + ").\n";
  }
  return text;
}

std::string ProteinTargetFacts(const Protein& protein) {
  static const char* const kEvidence[] = {"IEA", "EXP", "TAS", "IDA"};
  std::string text = "Protein(" + protein.acc + ", " + protein.name + ").\n";
  for (size_t i = 0; i < protein.go_terms.size(); ++i) {
    text += "Annotation(" + protein.acc + ", " + protein.go_terms[i] + ", " +
            kEvidence[(protein.acc.size() + i) % 4] + ").\n";
  }
  return text;
}

RelayUniverse MakeRelayUniverse(uint64_t seed, int nodes, int stable_edges,
                                int writers, int slice_edges) {
  Rng rng(seed);
  std::set<std::pair<uint32_t, uint32_t>> seen;
  auto next_edge = [&] {
    while (true) {
      uint32_t u = rng.Uniform(nodes);
      uint32_t v = rng.Uniform(nodes);
      if (seen.insert({u, v}).second) {
        return "E(v" + std::to_string(u) + ", v" + std::to_string(v) + ").";
      }
    }
  };
  RelayUniverse universe;
  for (int i = 0; i < stable_edges; ++i) universe.stable.push_back(next_edge());
  universe.slices.resize(writers);
  for (auto& slice : universe.slices) {
    for (int i = 0; i < slice_edges; ++i) slice.push_back(next_edge());
  }
  return universe;
}

std::string RelayDerived(const std::string& edge_fact) {
  return "R6" + edge_fact.substr(1);
}

}  // namespace perfbench
