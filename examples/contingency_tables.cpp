// Statistical-disclosure scenario: three-dimensional contingency tables
// (Irving–Jerrum). A statistics agency publishes the three 2-way margins
// of a private 3-way table (age band x region x income band). The
// *consistency* question — does ANY table realize the published margins? —
// is exactly GCPB(C3), the NP-complete core of Theorem 4.
//
// This example:
//   1. builds a hidden table and publishes its margins,
//   2. re-derives a consistent table with the exact solver,
//   3. shows that a tampered margin set is (and is detected as) unrealizable,
//   4. contrasts the pairwise consistency of the bags (fast, necessary)
//      with global consistency (the hard part on the cyclic triangle).
#include <cstdio>

#include "core/global.h"
#include "core/pairwise.h"
#include "reductions/threedct.h"
#include "util/random.h"

using namespace bagc;

namespace {

void Report(const char* label, const ThreeDctInstance& inst) {
  BagCollection bags = *ToTriangleBags(inst);
  bool pairwise = *ArePairwiseConsistent(bags);
  SolveStats stats;
  GlobalSolveOptions options;
  auto witness = SolveGlobalConsistencyExact(bags, options);
  std::printf("%-22s pairwise=%-3s globally=%-3s", label, pairwise ? "yes" : "no",
              witness.ok() && witness->has_value() ? "yes" : "no");
  if (witness.ok() && witness->has_value()) {
    std::printf("  (witness support %zu)", (*witness)->SupportSize());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  Rng rng(2021);
  size_t n = 3;  // 3 age bands x 3 regions x 3 income bands

  // A private table the agency never publishes.
  ThreeDctInstance published = MakeFeasibleInstance(n, 9, &rng);
  std::printf("published margins (n = %zu):\n", n);
  std::printf("  row sums R(i,k):    ");
  for (uint64_t v : published.row_sums) std::printf("%3llu", (unsigned long long)v);
  std::printf("\n  column sums C(j,k): ");
  for (uint64_t v : published.column_sums) {
    std::printf("%3llu", (unsigned long long)v);
  }
  std::printf("\n  front sums F(i,j):  ");
  for (uint64_t v : published.front_sums) std::printf("%3llu", (unsigned long long)v);
  std::printf("\n\n");

  Report("honest margins:", published);

  // Re-derive one realizing table (what an attacker or auditor would do).
  BagCollection bags = *ToTriangleBags(published);
  auto witness = *SolveGlobalConsistencyExact(bags);
  if (witness.has_value()) {
    std::vector<uint64_t> table(n * n * n, 0);
    for (size_t e = 0; e < witness->SupportSize(); ++e) {
      Tuple t = witness->RowAt(e);
      size_t i = static_cast<size_t>(t.at(0));
      size_t j = static_cast<size_t>(t.at(1));
      size_t k = static_cast<size_t>(t.at(2));
      table[(i * n + j) * n + k] = witness->MultiplicityAt(e);
    }
    std::printf("reconstructed a realizing table; verifies: %s\n\n",
                VerifyTable(published, table) ? "yes" : "no");
  }

  // A tampered margin set (one cell bumped): detectably unrealizable.
  ThreeDctInstance tampered = PerturbInstance(published, 1, &rng);
  Report("tampered margins:", tampered);

  std::printf(
      "\nTheorem 4 in action: deciding the honest case above took an\n"
      "exponential-worst-case search (the triangle schema is cyclic);\n"
      "had the schema been acyclic, pairwise consistency alone would have\n"
      "settled it in polynomial time.\n");
  return 0;
}
