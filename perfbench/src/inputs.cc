#include "inputs.h"

#include <cstring>
#include <sstream>
#include <unordered_map>

#include "common.h"
#include "core/collection.h"
#include "generators/workloads.h"
#include "tuple/segment.h"
#include "util/random.h"

namespace perfbench {
namespace {

size_t WitnessSlot(const Dataset& d, bagc::AttrId a) {
  bagc::Result<size_t> slot = d.witness.schema().IndexOf(a);
  if (!slot.ok()) Fail("attribute a" + std::to_string(a) + " not in the witness schema");
  return *slot;
}

// Fixed-width key of one projected row (4 bytes per id).
void AppendId(std::string* key, bagc::ValueId id) {
  char bytes[sizeof(id)];
  std::memcpy(bytes, &id, sizeof(id));
  key->append(bytes, sizeof(id));
}

}  // namespace

bagc::BagCollection Dataset::Collection() const {
  bagc::Result<bagc::BagCollection> c = bagc::BagCollection::Make(bags);
  Check(c.status(), "collection");
  return std::move(c).value();
}

Dataset MakeDataset(const bagc::Hypergraph& h, size_t rows, uint64_t domain,
                    uint64_t seed, const std::string& segment_path) {
  Dataset d;
  d.segment_path = segment_path;
  d.dicts = std::make_shared<bagc::DictionarySet>();
  bagc::Schema all = bagc::Schema::UnionAll(h.edges());
  for (bagc::AttrId a : all.attrs()) {
    while (d.catalog.size() <= a) {
      d.catalog.Intern("a" + std::to_string(d.catalog.size()));
    }
  }

  bagc::Rng rng(seed);
  bagc::BagGenOptions options;
  options.support_size = rows;
  options.domain_size = domain;
  options.max_multiplicity = 8;
  bagc::Result<bagc::Bag> numeric = bagc::MakeRandomBag(all, options, &rng);
  Check(numeric.status(), "witness sample");

  // Intern the witness once; every marginal then carries its ids.
  bagc::BagBuilder builder(all);
  builder.Reserve(numeric->SupportSize());
  std::vector<std::string> tokens(all.arity());
  for (size_t e = 0; e < numeric->SupportSize(); ++e) {
    bagc::Tuple t = numeric->RowAt(e);
    for (size_t c = 0; c < all.arity(); ++c) tokens[c] = "v" + std::to_string(t.at(c));
    Check(builder.AddExternal(tokens, numeric->MultiplicityAt(e), d.dicts.get()),
          "intern witness row");
  }
  bagc::Result<bagc::Bag> witness = builder.Build();
  Check(witness.status(), "witness build");
  d.witness = std::move(witness).value();

  for (const bagc::Schema& edge : h.edges()) {
    bagc::Result<bagc::Bag> marginal = d.witness.Marginal(edge);
    Check(marginal.status(), "marginal");
    d.bag_names.push_back("b" + std::to_string(d.bags.size()));
    d.bags.push_back(std::move(marginal).value());
  }
  Check(bagc::WriteSegmentFile(segment_path, d.bag_names, d.bags, d.catalog, *d.dicts),
        "write segment " + segment_path);

  bagc::Result<bagc::ConsistencyEngine> engine =
      bagc::ConsistencyEngine::Make(d.Collection());
  Check(engine.status(), "oracle engine");
  d.consistent.assign(d.num_bags(), std::vector<uint8_t>(d.num_bags(), 1));
  for (size_t i = 0; i < d.num_bags(); ++i) {
    for (size_t j = 0; j < d.num_bags(); ++j) {
      if (i == j) continue;
      bagc::Result<bool> v = engine->TwoBag(i, j);
      Check(v.status(), "oracle TWOBAG");
      d.consistent[i][j] = *v ? 1 : 0;
    }
  }
  return d;
}

bool WitnessMarginalizes(const Dataset& d, size_t i, size_t j,
                         const std::vector<std::string>& lines) {
  if (lines.size() < 2 || lines.front().rfind("bag ", 0) != 0 ||
      lines.back() != "end") {
    return false;
  }
  std::vector<bagc::AttrId> columns;
  {
    std::istringstream header(lines.front().substr(4));
    std::string name;
    while (header >> name) {
      bagc::Result<bagc::AttrId> a = d.catalog.Lookup(name);
      if (!a.ok()) return false;
      columns.push_back(*a);
    }
  }
  // Decode every witness row to ids once.
  const size_t arity = columns.size();
  std::vector<bagc::ValueId> ids;
  std::vector<uint64_t> mults;
  std::vector<std::string> tokens;
  for (size_t r = 1; r + 1 < lines.size(); ++r) {
    tokens.clear();
    std::istringstream row(lines[r]);
    std::string token;
    while (row >> token) tokens.push_back(token);
    if (tokens.size() != arity + 2 || tokens[arity] != ":") return false;
    for (size_t c = 0; c < arity; ++c) {
      const bagc::ValueDictionary* dict = d.dicts->find_dict(columns[c]);
      std::optional<bagc::ValueId> id =
          dict == nullptr ? std::nullopt : dict->Find(tokens[c]);
      if (!id.has_value()) return false;
      ids.push_back(*id);
    }
    mults.push_back(std::strtoull(tokens.back().c_str(), nullptr, 10));
  }
  for (size_t target : {i, j}) {
    const bagc::Bag& bag = d.bags[target];
    std::vector<size_t> slots;
    for (bagc::AttrId a : bag.schema().attrs()) {
      size_t c = 0;
      while (c < arity && columns[c] != a) ++c;
      if (c == arity) return false;
      slots.push_back(c);
    }
    std::unordered_map<std::string, uint64_t> projected;
    std::string key;
    for (size_t r = 0; r < mults.size(); ++r) {
      key.clear();
      for (size_t c : slots) AppendId(&key, ids[r * arity + c]);
      projected[key] += mults[r];
    }
    if (projected.size() != bag.SupportSize()) return false;
    for (size_t e = 0; e < bag.SupportSize(); ++e) {
      key.clear();
      for (size_t c = 0; c < slots.size(); ++c) AppendId(&key, bag.IdAt(e, c));
      auto it = projected.find(key);
      if (it == projected.end() || it->second != bag.MultiplicityAt(e)) return false;
    }
  }
  return true;
}

std::pair<std::string, std::string> DeltaCommand(const Dataset& d, size_t b,
                                                 size_t w, bool insert) {
  const bagc::Schema& schema = d.bags[b].schema();
  std::string command = (insert ? "INSERT " : "DELETE ") + d.bag_names[b];
  std::string row;
  for (bagc::AttrId a : schema.attrs()) {
    command += " " + d.catalog.Name(a);
    row += std::to_string(d.witness.IdAt(w, WitnessSlot(d, a))) + " ";
  }
  return {command, row + ": 1"};
}

bagc::DeltaBatch DeltaBatchFor(const Dataset& d, size_t w, bool insert) {
  bagc::DeltaBatch batch;
  for (size_t b = 0; b < d.num_bags(); ++b) {
    std::vector<bagc::ValueId> ids;
    for (bagc::AttrId a : d.bags[b].schema().attrs()) {
      ids.push_back(d.witness.IdAt(w, WitnessSlot(d, a)));
    }
    bagc::BagDeltas deltas;
    deltas.bag_index = b;
    deltas.deltas.push_back(
        bagc::BagDelta{bagc::Tuple::OfIds(std::move(ids)), insert ? 1 : -1});
    batch.push_back(std::move(deltas));
  }
  return batch;
}

}  // namespace perfbench
