// Quickstart: the bagc public API in one file.
//
//   1. Build two bags over overlapping schemas.
//   2. Decide their consistency (Lemma 2: compare shared marginals).
//   3. Construct a witness (Corollary 1) — the northwest-corner vertex
//      of P(R, S), which is already a *minimal* witness (Corollary 4).
//   4. Assemble a collection over an acyclic schema and produce a global
//      witness (Theorem 6).
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "bag/bag.h"
#include "core/collection.h"
#include "core/global.h"
#include "core/two_bag.h"
#include "tuple/attribute.h"

using namespace bagc;

int main() {
  AttributeCatalog catalog;
  AttrId a = catalog.Intern("A");
  AttrId b = catalog.Intern("B");
  AttrId c = catalog.Intern("C");

  // The paper's §3 example: R1(AB) and S1(BC), each with two tuples of
  // multiplicity 1.
  Bag r = *MakeBag(Schema{{a, b}}, {{{1, 2}, 1}, {{2, 2}, 1}});
  Bag s = *MakeBag(Schema{{b, c}}, {{{2, 1}, 1}, {{2, 2}, 1}});
  std::printf("R = %s\n", r.ToString(catalog).c_str());
  std::printf("S = %s\n", s.ToString(catalog).c_str());

  // Lemma 2: R and S are consistent iff R[B] == S[B].
  bool consistent = *AreConsistent(r, s);
  std::printf("consistent? %s\n", consistent ? "yes" : "no");

  // Corollary 1: build a witness T(ABC) with T[AB] = R and T[BC] = S.
  auto witness = *FindWitness(r, s);
  std::printf("witness T = %s\n", witness->ToString(catalog).c_str());

  // The bag join is NOT a witness (contrast with relations!).
  Bag join = *Bag::Join(r, s);
  std::printf("bag join R x S (support %zu) is witness? %s\n", join.SupportSize(),
              *IsWitness(join, r, s) ? "yes" : "no");

  // Corollary 4: a minimal witness — support at most |R'| + |S'|.
  auto minimal = *FindMinimalWitness(r, s);
  std::printf("minimal witness support = %zu (bound %zu)\n",
              minimal->SupportSize(), r.SupportSize() + s.SupportSize());

  // Theorem 6: global witness over an acyclic (path) schema A - B - C - D.
  AttrId d = catalog.Intern("D");
  Bag t = *MakeBag(Schema{{c, d}}, {{{1, 7}, 1}, {{2, 7}, 1}});
  BagCollection collection = *BagCollection::Make({r, s, t});
  auto global = *SolveGlobalConsistencyAcyclic(collection);
  if (global.has_value()) {
    std::printf("global witness over {A,B,C,D}:\n%s\n",
                global->ToString(catalog).c_str());
  } else {
    std::printf("collection is not globally consistent\n");
  }
  return 0;
}
