#include "bag/relation.h"

namespace bagc {

Status Relation::Insert(const Tuple& t) {
  if (t.arity() != schema_.arity()) {
    return Status::InvalidArgument("tuple arity does not match relation schema");
  }
  tuples_.insert(t);
  return Status::OK();
}

Result<Relation> Relation::Project(const Schema& z) const {
  BAGC_ASSIGN_OR_RETURN(Projector proj, Projector::Make(schema_, z));
  Relation out(z);
  for (const Tuple& t : tuples_) {
    BAGC_RETURN_NOT_OK(out.Insert(t.Project(proj)));
  }
  return out;
}

Result<Relation> Relation::Join(const Relation& r, const Relation& s) {
  BAGC_ASSIGN_OR_RETURN(Bag join, Bag::Join(r.ToBag(), s.ToBag()));
  return SupportOf(join);
}

Result<Relation> Relation::JoinAll(const std::vector<Relation>& relations) {
  if (relations.empty()) {
    return Status::InvalidArgument("JoinAll of empty relation list");
  }
  Relation acc = relations[0];
  for (size_t i = 1; i < relations.size(); ++i) {
    BAGC_ASSIGN_OR_RETURN(acc, Join(acc, relations[i]));
  }
  return acc;
}

Result<Relation> Relation::Semijoin(const Relation& r, const Relation& s) {
  Schema shared = Schema::Intersect(r.schema(), s.schema());
  BAGC_ASSIGN_OR_RETURN(Projector r_proj, Projector::Make(r.schema(), shared));
  BAGC_ASSIGN_OR_RETURN(Relation s_proj, s.Project(shared));
  Relation out(r.schema());
  for (const Tuple& t : r.tuples()) {
    if (s_proj.Contains(t.Project(r_proj))) {
      BAGC_RETURN_NOT_OK(out.Insert(t));
    }
  }
  return out;
}

Relation Relation::SupportOf(const Bag& bag) {
  Relation out(bag.schema());
  // Bag rows are sorted, so the end hint makes each insert O(1).
  size_t n = bag.SupportSize();
  for (size_t i = 0; i < n; ++i) {
    out.tuples_.insert(out.tuples_.end(), bag.RowAt(i));
  }
  return out;
}

Bag Relation::ToBag() const {
  BagBuilder builder(schema_);
  builder.Reserve(tuples_.size());
  for (const Tuple& t : tuples_) {
    Status st = builder.Add(t, 1);
    (void)st;  // arity always matches by construction
  }
  Result<Bag> out = builder.Build();
  return std::move(out).value();  // distinct tuples never overflow on merge
}

std::string Relation::ToString() const {
  std::string out = schema_.ToString() + " {";
  bool first = true;
  for (const Tuple& t : tuples_) {
    if (!first) out += ", ";
    first = false;
    out += t.ToString();
  }
  out += "}";
  return out;
}

Result<Relation> MakeRelation(const Schema& schema,
                              const std::vector<std::vector<Value>>& rows) {
  Relation out(schema);
  for (const auto& values : rows) {
    if (values.size() != schema.arity()) {
      return Status::InvalidArgument("row arity does not match schema");
    }
    BAGC_RETURN_NOT_OK(out.Insert(Tuple{values}));
  }
  return out;
}

}  // namespace bagc
