// Seeded inputs and their oracle. Every collection is globally consistent
// by construction: a hidden witness over the union schema is sampled
// and marginalized onto each edge, so GLOBAL must answer CONSISTENT and
// the hidden witness's rows are valid one-row inserts (base + t is the
// marginal family of witness + t). The daemon only ever receives the
// segment file written here and the generated requests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bag/bag.h"
#include "engine/consistency_engine.h"
#include "hypergraph/hypergraph.h"
#include "tuple/attribute.h"
#include "tuple/value_dictionary.h"

namespace perfbench {

struct Dataset {
  std::string segment_path;
  std::vector<std::string> bag_names;  // "b0", "b1", ...
  std::vector<bagc::Bag> bags;         // interned through `dicts`
  bagc::AttributeCatalog catalog;      // "a0", "a1", ... in AttrId order
  std::shared_ptr<bagc::DictionarySet> dicts;
  bagc::Bag witness;                   // the hidden witness, same id space
  /// Oracle: consistent[i][j] from a ConsistencyEngine over `bags`.
  std::vector<std::vector<uint8_t>> consistent;

  size_t num_bags() const { return bags.size(); }
  /// The bags as a fresh collection (for in-process seals).
  bagc::BagCollection Collection() const;
};

/// Samples `rows` witness tuples over the union of `h`'s edges (values
/// uniform in [0, domain), multiplicities in [1, 8]), writes the
/// marginals as a BAGCSEG segment at `segment_path`, and fills the oracle.
Dataset MakeDataset(const bagc::Hypergraph& h, size_t rows, uint64_t domain,
                    uint64_t seed, const std::string& segment_path);

/// True when the witness block `lines` (header "bag ...", rows
/// "v v v : m", "end") marginalizes onto both bag i and bag j.
bool WitnessMarginalizes(const Dataset& d, size_t i, size_t j,
                         const std::vector<std::string>& lines);

/// The INSERT (or DELETE) of hidden-witness row `w` projected onto bag
/// `b`: the command line and its one body row of u32 ids.
std::pair<std::string, std::string> DeltaCommand(const Dataset& d, size_t b,
                                                 size_t w, bool insert);

/// The same delta as a one-generation batch over every bag (what COMMIT
/// publishes for BEGIN + one delta per bag).
bagc::DeltaBatch DeltaBatchFor(const Dataset& d, size_t w, bool insert);

}  // namespace perfbench
