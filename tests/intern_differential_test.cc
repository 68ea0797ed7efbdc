// Randomized interning-equivalence harness (the correctness obligation of
// the interned-row refactor): on 200+ generated collections, the
// fixed-width interned-row pipeline must produce *bit-identical* verdicts
// and witness multiplicities to a string-keyed oracle that never interns
// anything — it computes marginals as std::map<std::vector<std::string>,
// uint64_t> over the external tokens directly. Covers:
//
//   - pairwise / two-bag / global verdicts (and the first failing pair)
//     of an engine over dictionary-interned bags vs the string oracle and
//     vs the legacy numeric-codec representation of the same instance;
//   - witness multiplicities: every two-bag witness, decoded back to
//     external tokens, marginalizes to exactly the oracle's string maps;
//   - insertion-order robustness: rows intern in shuffled order, so
//     dictionary ids differ from the numeric values — only equality
//     structure survives, which is precisely what the paper licenses;
//   - bag_io round-trip: write-with-dictionary → parse-into-fresh
//     dictionary → identical external content and identical verdicts.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bag/bag_io.h"
#include "engine/consistency_engine.h"
#include "generators/workloads.h"
#include "hypergraph/families.h"
#include "util/random.h"

namespace bagc {
namespace {

// External token for (attribute, numeric value) — deliberately stringy
// (shared prefix, per-attribute salt) so nothing short of real string
// equality can tell tokens apart.
std::string Tok(AttrId a, Value v) {
  return "attr" + std::to_string(a) + "_val_" + std::to_string(v);
}

// Schema-aligned external tokens of a numeric tuple.
std::vector<std::string> TokensOf(const Schema& schema, const Tuple& t) {
  std::vector<std::string> out(schema.arity());
  for (size_t i = 0; i < schema.arity(); ++i) out[i] = Tok(schema.at(i), t.at(i));
  return out;
}

using StringBag = std::map<std::vector<std::string>, uint64_t>;

// The string-keyed oracle's marginal: group the external token rows of
// `bag` (a numeric-codec bag) by their projection onto z.
StringBag OracleMarginal(const Bag& bag, const Schema& z) {
  Projector proj = *Projector::Make(bag.schema(), z);
  StringBag out;
  for (size_t e = 0; e < bag.SupportSize(); ++e) {
    std::vector<std::string> row = TokensOf(bag.schema(), bag.RowAt(e));
    std::vector<std::string> projected(proj.arity());
    for (size_t i = 0; i < proj.arity(); ++i) projected[i] = row[proj.SourceIndex(i)];
    out[projected] += bag.MultiplicityAt(e);
  }
  return out;
}

// Decoded table keyed by attribute *name*: representation-independent
// across catalogs whose id assignment permutes (fresh parse order).
using NamedBag =
    std::map<std::vector<std::pair<std::string, std::string>>, uint64_t>;

NamedBag NamedTable(const Bag& bag, const DictionarySet& dicts,
                    const AttributeCatalog& catalog) {
  NamedBag out;
  for (size_t e = 0; e < bag.SupportSize(); ++e) {
    std::vector<std::string> tokens = *dicts.DecodeRow(bag.schema(), bag.RowAt(e));
    std::vector<std::pair<std::string, std::string>> row(tokens.size());
    for (size_t i = 0; i < tokens.size(); ++i) {
      row[i] = {catalog.Name(bag.schema().at(i)), tokens[i]};
    }
    std::sort(row.begin(), row.end());
    out[std::move(row)] += bag.MultiplicityAt(e);
  }
  return out;
}

// Decoded string table of an interned bag (external rows -> multiplicity).
StringBag DecodedTable(const Bag& bag, const DictionarySet& dicts) {
  StringBag out;
  for (size_t e = 0; e < bag.SupportSize(); ++e) {
    out[*dicts.DecodeRow(bag.schema(), bag.RowAt(e))] += bag.MultiplicityAt(e);
  }
  return out;
}

struct OracleVerdict {
  bool consistent = true;
  std::pair<size_t, size_t> first_failing{0, 0};
};

OracleVerdict OraclePairwise(const BagCollection& numeric) {
  for (size_t i = 0; i < numeric.size(); ++i) {
    for (size_t j = i + 1; j < numeric.size(); ++j) {
      Schema z =
          Schema::Intersect(numeric.bag(i).schema(), numeric.bag(j).schema());
      if (OracleMarginal(numeric.bag(i), z) != OracleMarginal(numeric.bag(j), z)) {
        return {false, {i, j}};
      }
    }
  }
  return {};
}

// Same workload shapes as the engine differential: rotating hypergraph
// families, consistent by construction, perturbed half the time.
Result<BagCollection> MakeWorkload(uint64_t seed) {
  Rng rng(seed * 2654435761u + 17);
  BagGenOptions options;
  options.support_size = 2 + rng.Below(8);
  options.domain_size = 2 + rng.Below(3);
  options.max_multiplicity = 5;
  Hypergraph h = [&] {
    switch (seed % 4) {
      case 0:
        return *MakePath(2 + seed % 4);
      case 1:
        return *MakeStar(2 + seed % 4);
      case 2:
        return *MakeRandomAcyclic(3 + seed % 3, 3, &rng);
      default:
        return *MakeCycle(3);
    }
  }();
  BAGC_ASSIGN_OR_RETURN(BagCollection c,
                        MakeGloballyConsistentCollection(h, options, &rng));
  if (rng.Chance(1, 2)) {
    std::vector<Bag> bags = c.bags();
    Bag& victim = bags[rng.Below(bags.size())];
    if (victim.IsEmpty()) {
      std::vector<Value> zeros(victim.schema().arity(), 0);
      EXPECT_TRUE(victim.Set(Tuple{zeros}, 1).ok());
    } else {
      size_t pick = rng.Below(victim.SupportSize());
      Tuple t = victim.RowAt(pick);
      EXPECT_TRUE(victim.Set(t, victim.MultiplicityAt(pick) + 1).ok());
    }
    return BagCollection::Make(std::move(bags));
  }
  return c;
}

// Interns the numeric collection's external tokens through one shared
// DictionarySet, inserting rows in shuffled order so dictionary ids bear
// no relation to the numeric values (or to the sorted row order).
Result<BagCollection> InternCollection(const BagCollection& numeric,
                                       DictionarySet* dicts, Rng* rng) {
  std::vector<Bag> interned;
  interned.reserve(numeric.size());
  for (const Bag& b : numeric.bags()) {
    std::vector<size_t> order(b.SupportSize());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng->Shuffle(&order);
    BagBuilder builder(b.schema());
    builder.Reserve(b.SupportSize());
    for (size_t i : order) {
      BAGC_RETURN_NOT_OK(builder.AddExternal(TokensOf(b.schema(), b.RowAt(i)),
                                             b.MultiplicityAt(i), dicts));
    }
    BAGC_ASSIGN_OR_RETURN(Bag sealed, builder.Build());
    interned.push_back(std::move(sealed));
  }
  return BagCollection::Make(std::move(interned));
}

TEST(InternDifferentialTest, MatchesStringOracleOn200Collections) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(9'000'000 + seed);
    BagCollection numeric = *MakeWorkload(seed);
    auto dicts = std::make_shared<DictionarySet>();
    BagCollection interned = *InternCollection(numeric, dicts.get(), &rng);

    // Sanity: the interned bags decode to exactly the oracle's tables.
    for (size_t i = 0; i < numeric.size(); ++i) {
      ASSERT_EQ(DecodedTable(interned.bag(i), *dicts),
                OracleMarginal(numeric.bag(i), numeric.bag(i).schema()));
    }

    OracleVerdict oracle = OraclePairwise(numeric);

    EngineOptions opts;
    opts.dictionaries = dicts;
    ConsistencyEngine engine = *ConsistencyEngine::Make(interned, opts);
    ConsistencyEngine numeric_engine = *ConsistencyEngine::Make(numeric);

    // Pairwise: interned engine == string oracle == numeric codec path,
    // including the lexicographically-first failing pair.
    PairwiseVerdict verdict = *engine.PairwiseAll();
    PairwiseVerdict numeric_verdict = *numeric_engine.PairwiseAll();
    EXPECT_EQ(verdict.consistent, oracle.consistent);
    EXPECT_EQ(numeric_verdict.consistent, oracle.consistent);
    if (!oracle.consistent) {
      EXPECT_EQ(verdict.witness_pair, oracle.first_failing);
      EXPECT_EQ(numeric_verdict.witness_pair, oracle.first_failing);
    }

    // Two-bag verdicts and witness multiplicities on every pair.
    for (size_t i = 0; i < interned.size(); ++i) {
      for (size_t j = i + 1; j < interned.size(); ++j) {
        Schema z = Schema::Intersect(interned.bag(i).schema(),
                                     interned.bag(j).schema());
        bool pair_oracle = OracleMarginal(numeric.bag(i), z) ==
                           OracleMarginal(numeric.bag(j), z);
        EXPECT_EQ(*engine.TwoBag(i, j), pair_oracle);
        EXPECT_EQ(*numeric_engine.TwoBag(i, j), pair_oracle);

        std::optional<Bag> witness = *engine.Witness(i, j);
        EXPECT_EQ(witness.has_value(), pair_oracle);
        if (witness.has_value()) {
          // Bit-identical witness multiplicities: the decoded witness
          // marginals ARE the oracle's string tables, multiplicity for
          // multiplicity (T[Xi] == Ri as functions).
          Bag wx = *witness->Marginal(interned.bag(i).schema());
          Bag wy = *witness->Marginal(interned.bag(j).schema());
          EXPECT_EQ(DecodedTable(wx, *dicts),
                    OracleMarginal(numeric.bag(i), numeric.bag(i).schema()));
          EXPECT_EQ(DecodedTable(wy, *dicts),
                    OracleMarginal(numeric.bag(j), numeric.bag(j).schema()));
        }
      }
    }

    // Global verdict: interned vs numeric representation (acyclic cases
    // reduce to the oracle-checked pairwise; cyclic ones cross-check the
    // exact solver on both row encodings).
    EXPECT_EQ(*engine.Global(), *numeric_engine.Global());

    // k-wise on a sample of seeds (subset sweep is the expensive one).
    if (seed % 10 == 0 && interned.size() >= 3) {
      std::optional<std::vector<size_t>> f1, f2;
      bool k1 = *engine.KWiseConsistent(3, &f1);
      bool k2 = *numeric_engine.KWiseConsistent(3, &f2);
      EXPECT_EQ(k1, k2);
      EXPECT_EQ(f1, f2);
    }
  }
}

TEST(InternDifferentialTest, BagIoRoundTripsThroughDictionaries) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(41'000 + seed);
    BagCollection numeric = *MakeWorkload(seed);
    DictionarySet dicts;
    BagCollection interned = *InternCollection(numeric, &dicts, &rng);

    AttributeCatalog catalog;
    for (AttrId a : interned.union_schema().attrs()) {
      catalog.Intern("A" + std::to_string(a));
    }
    std::string text = WriteCollection(interned.bags(), catalog, &dicts);

    // Parse into a FRESH catalog and dictionary set: ids are assigned
    // from scratch in file order, yet the external content — and hence
    // every verdict — must be identical.
    AttributeCatalog catalog2;
    DictionarySet dicts2;
    std::vector<Bag> reparsed = *ParseCollection(text, &catalog2, &dicts2);
    ASSERT_EQ(reparsed.size(), interned.size());
    for (size_t i = 0; i < reparsed.size(); ++i) {
      EXPECT_EQ(NamedTable(reparsed[i], dicts2, catalog2),
                NamedTable(interned.bag(i), dicts, catalog));
    }

    BagCollection rc = *BagCollection::Make(reparsed);
    ConsistencyEngine e1 = *ConsistencyEngine::Make(interned);
    ConsistencyEngine e2 = *ConsistencyEngine::Make(rc);
    PairwiseVerdict v1 = *e1.PairwiseAll();
    PairwiseVerdict v2 = *e2.PairwiseAll();
    EXPECT_EQ(v1.consistent, v2.consistent);
    if (!v1.consistent) {
      EXPECT_EQ(v1.witness_pair, v2.witness_pair);
    }
    EXPECT_EQ(*e1.Global(), *e2.Global());

    // Writing the reparsed collection with its own dictionaries yields a
    // document with the same external rows (the string tables already
    // matched); a second parse is a fixed point.
    std::string text2 = WriteCollection(rc.bags(), catalog2, &dicts2);
    AttributeCatalog catalog3;
    DictionarySet dicts3;
    std::vector<Bag> again = *ParseCollection(text2, &catalog3, &dicts3);
    ASSERT_EQ(again.size(), reparsed.size());
    for (size_t i = 0; i < again.size(); ++i) {
      EXPECT_EQ(NamedTable(again[i], dicts3, catalog3),
                NamedTable(reparsed[i], dicts2, catalog2));
    }
  }
}

TEST(InternDifferentialTest, CanonicalizedScansMatchSortedMapOracle) {
  // With canonicalize_dictionaries, id order == external sort order, so an
  // ordered entry scan of every sealed bag decodes to exactly the sequence
  // a std::map over the external token rows yields — and verdicts are
  // unchanged from the un-canonicalized engine.
  for (uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(77'000 + seed);
    BagCollection numeric = *MakeWorkload(seed);
    auto dicts = std::make_shared<DictionarySet>();
    BagCollection interned = *InternCollection(numeric, dicts.get(), &rng);

    EngineOptions plain_opts;
    plain_opts.dictionaries = dicts;
    ConsistencyEngine plain = *ConsistencyEngine::Make(interned, plain_opts);
    PairwiseVerdict before = *plain.PairwiseAll();
    bool global_before = *plain.Global();

    EngineOptions canon_opts;
    canon_opts.dictionaries = dicts;
    canon_opts.canonicalize_dictionaries = true;
    ConsistencyEngine canon = *ConsistencyEngine::Make(interned, canon_opts);

    for (size_t b = 0; b < canon.collection().size(); ++b) {
      const Bag& bag = canon.collection().bag(b);
      // The std::map oracle iterates external rows in sorted order; the
      // canonicalized bag's id-sorted scan must decode to the same walk.
      StringBag oracle = OracleMarginal(numeric.bag(b), numeric.bag(b).schema());
      ASSERT_EQ(bag.SupportSize(), oracle.size());
      auto it = oracle.begin();
      for (size_t r = 0; r < bag.SupportSize(); ++r, ++it) {
        std::vector<std::string> decoded =
            *canon.dictionaries()->DecodeRow(bag.schema(), bag.RowAt(r));
        EXPECT_EQ(decoded, it->first);
        EXPECT_EQ(bag.MultiplicityAt(r), it->second);
      }
    }

    // Canonicalization is a per-attribute value renaming: every verdict
    // survives it.
    PairwiseVerdict after = *canon.PairwiseAll();
    EXPECT_EQ(after.consistent, before.consistent);
    if (!before.consistent) {
      EXPECT_EQ(after.witness_pair, before.witness_pair);
    }
    EXPECT_EQ(*canon.Global(), global_before);
  }

  // Guard rails: canonicalization needs an owned collection and a set.
  BagCollection c = *MakeWorkload(1);
  EngineOptions bad;
  bad.canonicalize_dictionaries = true;
  EXPECT_FALSE(ConsistencyEngine::Make(c, bad).ok());  // no dictionaries
  bad.dictionaries = std::make_shared<DictionarySet>();
  EXPECT_FALSE(ConsistencyEngine::MakeView(c, bad).ok());  // borrowed view
}

TEST(InternDifferentialTest, MixedNumericAndDictionaryFilesParse) {
  // Legacy numeric documents must keep parsing identically with a
  // dictionary attached: tokens are interned as strings, and writing
  // decodes them back to the very same text.
  const char* text =
      "bag A B\n"
      "1 2 : 3\n"
      "7 2 : 1\n"
      "end\n";
  AttributeCatalog catalog;
  DictionarySet dicts;
  std::vector<Bag> bags = *ParseCollection(text, &catalog, &dicts);
  ASSERT_EQ(bags.size(), 1u);
  EXPECT_EQ(bags[0].SupportSize(), 2u);
  std::string rewritten = WriteBag(bags[0], catalog, &dicts);
  EXPECT_EQ(rewritten, text);

  // And a string-valued document is round-trippable the same way.
  const char* stext =
      "bag City Product\n"
      "berlin widget : 2\n"
      "paris gadget : 5\n"
      "end\n";
  AttributeCatalog scatalog;
  DictionarySet sdicts;
  std::vector<Bag> sbags = *ParseCollection(stext, &scatalog, &sdicts);
  ASSERT_EQ(sbags.size(), 1u);
  EXPECT_EQ(WriteBag(sbags[0], scatalog, &sdicts), stext);

  // Without a dictionary, string tokens are a parse error (historical
  // numeric format enforced).
  AttributeCatalog ncatalog;
  EXPECT_FALSE(ParseCollection(stext, &ncatalog).ok());
}

}  // namespace
}  // namespace bagc
