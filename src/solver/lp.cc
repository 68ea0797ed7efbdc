#include "solver/lp.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "tuple/value_codec.h"

namespace bagc {

namespace {

Schema JoinedSchema(const std::vector<Bag>& bags) {
  Schema joined = bags[0].schema();
  for (size_t i = 1; i < bags.size(); ++i) {
    joined = Schema::Union(joined, bags[i].schema());
  }
  return joined;
}

size_t SlotOf(const Schema& schema, AttrId a) {
  const std::vector<AttrId>& attrs = schema.attrs();
  return static_cast<size_t>(std::lower_bound(attrs.begin(), attrs.end(), a) -
                             attrs.begin());
}

// The first index in [lo, hi) of the sorted column whose value is not
// before(), or hi. A seek in a leapfrog join mostly lands at or just past
// lo, or else jumps a long way: a few galloping probes, then a branch-free
// binary search over the rest.
template <class Before>
uint32_t Seek(const ValueId* col, uint32_t lo, uint32_t hi, Before before) {
  if (lo == hi || !before(col[lo])) return lo;
  // Invariant: before(col[lo]); the answer is in (lo, hi].
  for (uint32_t step = 1; step <= 8; step <<= 1) {
    if (step >= hi - lo) break;
    if (!before(col[lo + step])) {
      return static_cast<uint32_t>(
          std::partition_point(col + lo + 1, col + lo + step, before) - col);
    }
    lo += step;
  }
  const ValueId* base = col + lo + 1;
  size_t len = hi - lo - 1;
  if (len == 0) return hi;
  while (len > 1) {
    const size_t half = len / 2;
    base += before(base[half]) * half;
    len -= half;
  }
  return static_cast<uint32_t>(base - col) + before(*base);
}

// Leapfrog triejoin of the supports (Veldhuizen 2014), one joined-schema
// attribute per level. The rows of bag i that agree with the values bound
// so far are one range [lo_[i], hi_[i]) of its sorted rows, and that
// range's column for the bag's next attribute is sorted: each level
// intersects its participants' sorted runs by seeks, narrows every
// participant to the run of each common value in ascending order, and
// descends. A tuple of J is reached with every range one row wide.
//
// Level d's bindings are the tuples of the join of the supports'
// projections onto the joined schema's first d + 1 attributes, and only
// the last level's are J: a J within the cap can sit under a far larger
// prefix join (a C4 whose first two bags join to N^2 pairs that the last
// two cut back to N). So a walk counts every level's bindings and stops
// once one passes the cap, which bounds its work by arity x cap bindings
// whatever J's size.
//
// A bag whose first attribute is not the first level enters that level
// with its whole support as the range, once per binding of the levels
// above, so those seeks jump far. When that column holds dense direct
// ids, a table of where each value's run starts (the trie's root as an
// array) answers them in one load.
class Leapfrog {
 public:
  Leapfrog(const std::vector<Bag>& bags, const Schema& joined, size_t cap)
      : cap_(cap),
        level_(joined.arity() + 1, 0),
        bound_(joined.arity(), 0),
        lo_(bags.size(), 0),
        hi_(bags.size()) {
    for (const Bag& bag : bags) {
      for (AttrId a : bag.schema().attrs()) ++level_[SlotOf(joined, a) + 1];
    }
    for (size_t d = 0; d < joined.arity(); ++d) level_[d + 1] += level_[d];
    cursors_.resize(level_.back());
    std::vector<size_t> fill(level_.begin(), level_.end() - 1);
    size_t table = 0;
    for (size_t i = 0; i < bags.size(); ++i) {
      const Schema& x = bags[i].schema();
      const uint32_t n = static_cast<uint32_t>(bags[i].SupportSize());
      hi_[i] = n;
      for (size_t c = 0; c < x.arity(); ++c) {
        const size_t d = SlotOf(joined, x.at(c));
        Cursor& cursor = cursors_[fill[d]++];
        cursor.bag = static_cast<uint32_t>(i);
        cursor.col = bags[i].Column(c);
        // Direct ids sort by value between the side table's negative and
        // large values, so a column that starts and ends direct is all
        // direct; dense means a table no larger than a few rows' worth.
        const ValueId* col = cursor.col;
        if (c == 0 && d != 0 && n != 0 && col[0] < kDirectValueLimit &&
            col[n - 1] < kDirectValueLimit && col[n - 1] <= 4 * size_t{n} + 64) {
          cursor.max = col[n - 1];
          cursor.table = table;
          table += cursor.max + 2;
        }
      }
    }
    // starts[v] is the first row whose id is at least v.
    starts_.resize(table);
    for (Cursor& cursor : cursors_) {
      if (cursor.table == kNoTable) continue;
      uint32_t* starts = starts_.data() + cursor.table;
      const uint32_t n = hi_[cursor.bag];
      uint32_t r = 0;
      for (ValueId v = 0; v <= cursor.max + 1; ++v) {
        while (r < n && cursor.col[r] < v) ++r;
        starts[v] = r;
      }
      cursor.starts = starts;
    }
  }

  // Calls emit(rows) at each tuple of J in Tuple order, rows[i] being its
  // support row in bag i, until it returns false; false then, and once
  // some level has bound more than the cap. With no attribute at all every
  // bag holds just the empty tuple, so J is that one tuple.
  template <class Emit>
  bool Walk(Emit&& emit) {
    if (bound_.empty()) return cap_ != 0 && emit(lo_);
    std::fill(bound_.begin(), bound_.end(), 0);
    const size_t last = bound_.size() - 1;
    if (last == 0) return VisitLastLevel(emit);
    size_t d = 0;
    Enter(0);
    while (true) {
      if (!Bind(d)) {
        Leave(d);
        if (d == 0) return true;
        --d;
      } else if (++bound_[d] > cap_ || (d + 1 == last && !VisitLastLevel(emit))) {
        for (++d; d > 0; --d) Leave(d - 1);
        return false;
      } else if (d + 1 < last) {
        Enter(++d);
      }
    }
  }

 private:
  static constexpr size_t kNoTable = ~size_t{0};

  struct Cursor {
    uint32_t bag = 0;
    const ValueId* col = nullptr;
    // The bag's range [begin, end) on entry to the level, and the run
    // [at, next) of the value bound there.
    uint32_t begin = 0, at = 0, next = 0, end = 0;
    // The run-start table of a first column of dense direct ids (its range
    // is then always the whole support), its offset in starts_, and the
    // column's largest id.
    const uint32_t* starts = nullptr;
    size_t table = kNoTable;
    ValueId max = 0;

    ValueId Key() const { return col[at]; }
    // The first row in [at, end) whose value is not below target.
    uint32_t LowerBound(ValueId target) const {
      if (starts != nullptr && target < kDirectValueLimit) {
        return target > max ? end : std::max(at, starts[target]);
      }
      return Seek(col, at, end, [target](ValueId x) { return ValueIdLess(x, target); });
    }
    // The end of the run of value, which starts at at.
    uint32_t UpperBound(ValueId value) const {
      if (starts != nullptr && value < kDirectValueLimit) return starts[value + 1];
      return Seek(col, at + 1, end, [value](ValueId x) { return !ValueIdLess(value, x); });
    }
  };

  Cursor* First(size_t d) { return cursors_.data() + level_[d]; }
  Cursor* End(size_t d) { return cursors_.data() + level_[d + 1]; }

  // Starts level d on its participants' current ranges.
  void Enter(size_t d) {
    for (Cursor* c = First(d); c != End(d); ++c) {
      c->begin = c->at = c->next = lo_[c->bag];
      c->end = hi_[c->bag];
    }
  }

  // Binds level d to its next common value, narrowing its participants'
  // ranges to the value's runs; false when none is left.
  bool Bind(size_t d) {
    for (Cursor* c = First(d); c != End(d); ++c) c->at = c->next;
    if (!Intersect(First(d), End(d))) return false;
    const ValueId value = First(d)->Key();
    for (Cursor* c = First(d); c != End(d); ++c) {
      c->next = c->UpperBound(value);
      lo_[c->bag] = c->at;
      hi_[c->bag] = c->next;
    }
    return true;
  }

  // Gives level d's participants back the ranges they entered it with.
  void Leave(size_t d) {
    for (Cursor* c = First(d); c != End(d); ++c) {
      lo_[c->bag] = c->begin;
      hi_[c->bag] = c->end;
    }
  }

  // Moves the cursors [first, end) to the least value at or past all of
  // them that each holds; false when one runs out first. Round from the
  // first, each cursor seeks the value the one before it holds, until all
  // of them in a row hold it. None skips a common value: each holds its
  // least value at or past the largest sought so far.
  static bool Intersect(Cursor* first, Cursor* end) {
    const size_t k = static_cast<size_t>(end - first);
    Cursor* c = first;
    if (c->at == c->end) return false;
    ValueId value = c->Key();
    for (size_t agree = 1; agree < k;) {
      if (++c == end) c = first;
      c->at = c->LowerBound(value);
      if (c->at == c->end) return false;
      if (c->Key() == value) {
        ++agree;
      } else {
        value = c->Key();
        agree = 1;
      }
    }
    return true;
  }

  // The last level's participants have bound all their other attributes,
  // so each of their ranges holds a value once, and J's tuples under the
  // bindings above are the values the ranges share: emit() sees lo_ at
  // each shared value's row in every range, in order. False when emit()
  // does, or once the level has bound more than the cap.
  template <class Emit>
  bool VisitLastLevel(Emit& emit) {
    const size_t d = bound_.size() - 1;
    Cursor* first = First(d);
    Cursor* end = End(d);
    Enter(d);
    bool more = true;
    while (more && Intersect(first, end)) {
      for (Cursor* c = first; c != end; ++c) lo_[c->bag] = c->at++;
      more = ++bound_[d] <= cap_ && emit(lo_);
    }
    Leave(d);
    return more;
  }

  size_t cap_;
  // Level d's participants are cursors_[level_[d] .. level_[d + 1]), and
  // it has bound bound_[d] values in this walk.
  std::vector<size_t> level_;
  std::vector<size_t> bound_;
  std::vector<Cursor> cursors_;
  std::vector<uint32_t> lo_;
  std::vector<uint32_t> hi_;
  std::vector<uint32_t> starts_;
};

// Appends bag i's rows given every variable's support row in that bag,
// src[v * stride]: one row per support row, in support order, its
// variables laid out ascending by one counting sort over src.
void AppendBagRows(uint32_t i, const Bag& bag, const uint32_t* src, size_t stride,
                   size_t n, LpRows* rows) {
  const size_t support = bag.SupportSize();
  const size_t base = rows->vars.size();
  std::vector<size_t> cursor(support + 1, 0);
  for (size_t v = 0; v < n; ++v) ++cursor[src[v * stride] + 1];
  const uint64_t* mults = bag.MultiplicityData();
  for (size_t e = 0; e < support; ++e) {
    cursor[e + 1] += cursor[e];
    rows->bag.push_back(i);
    rows->support_row.push_back(static_cast<uint32_t>(e));
    rows->rhs.push_back(mults[e]);
    rows->offsets.push_back(base + cursor[e + 1]);
  }
  rows->vars.resize(base + n);
  uint32_t* vars = rows->vars.data() + base;
  for (size_t v = 0; v < n; ++v) vars[cursor[src[v * stride]]++] = static_cast<uint32_t>(v);
}

}  // namespace

Result<JoinProvenance> JoinSupports(const std::vector<Bag>& bags,
                                    size_t max_join_support) {
  if (bags.empty()) return Status::InvalidArgument("empty bag collection");
  JoinProvenance join;
  join.joined = JoinedSchema(bags);
  join.bags = bags.size();
  size_t support = 0;
  for (const Bag& bag : bags) {
    if (bag.IsEmpty()) return join;
    support = std::max(support, bag.SupportSize());
  }
  // One walk writes J as it finds it while J stays within a quarter past
  // the largest support (a consistent collection's J is about that size).
  // A larger J is counted by a second walk, refused at the cap before any
  // more of it is written, and written by a third at its exact size.
  Leapfrog leapfrog(bags, join.joined, max_join_support);
  size_t limit = std::min(max_join_support, support + support / 4);
  size_t n = 0;
  auto write = [&](const std::vector<uint32_t>& rows) {
    if (n == limit) return false;
    if (n++ == 0) join.rows.reserve(limit * join.bags);
    join.rows.insert(join.rows.end(), rows.begin(), rows.end());
    return true;
  };
  if (!leapfrog.Walk(write)) {
    // Stopped short of the limit, the walk stopped at the cap.
    const bool short_of_limit = n < limit;
    n = 0;
    auto count = [&n](const std::vector<uint32_t>&) {
      ++n;
      return true;
    };
    if (short_of_limit || !leapfrog.Walk(count)) {
      return Status::ResourceExhausted("join support exceeds cap (" +
                                       std::to_string(max_join_support) + ")");
    }
    std::vector<uint32_t>().swap(join.rows);
    limit = n;
    n = 0;
    leapfrog.Walk(write);
  }
  join.size = n;
  return join;
}

ColumnStore GatherJoinRows(const std::vector<Bag>& bags, const JoinProvenance& join,
                           const std::vector<uint32_t>& vars) {
  const size_t arity = join.joined.arity();
  const size_t n = vars.size();
  std::vector<ValueId> data(arity * n);
  // Each attribute is read from the first bag, in bag order, that has it.
  std::vector<bool> gathered(arity, false);
  for (size_t i = 0; i < bags.size(); ++i) {
    const Schema& x = bags[i].schema();
    for (size_t c = 0; c < x.arity(); ++c) {
      const size_t slot = SlotOf(join.joined, x.at(c));
      if (gathered[slot]) continue;
      gathered[slot] = true;
      const ValueId* col = bags[i].Column(c);
      ValueId* dst = data.data() + slot * n;
      for (size_t k = 0; k < n; ++k) dst[k] = col[join.RowsOf(vars[k])[i]];
    }
  }
  return ColumnStore::FromColumnMajor(std::move(data), n, arity);
}

Result<ConsistencyLp> BuildConsistencyLp(const std::vector<Bag>& bags,
                                         size_t max_join_support) {
  BAGC_ASSIGN_OR_RETURN(JoinProvenance join, JoinSupports(bags, max_join_support));
  ConsistencyLp lp;
  const size_t n = join.size;
  std::vector<uint32_t> all(n);
  std::iota(all.begin(), all.end(), 0u);
  lp.variables.columns = GatherJoinRows(bags, join, all);
  lp.joined_schema = std::move(join.joined);
  size_t support = 0;
  for (const Bag& b : bags) support += b.SupportSize();
  LpRows& rows = lp.rows;
  rows.bag.reserve(support);
  rows.support_row.reserve(support);
  rows.rhs.reserve(support);
  rows.offsets.reserve(support + 1);
  rows.offsets.push_back(0);
  rows.vars.reserve(bags.size() * n);
  for (size_t i = 0; i < bags.size(); ++i) {
    AppendBagRows(static_cast<uint32_t>(i), bags[i], join.rows.data() + i, bags.size(), n,
                  &rows);
  }
  return lp;
}

}  // namespace bagc
