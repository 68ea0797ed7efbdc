// Machine-readable micro-benchmark pass. Two suites:
//
//   bag_refactor (default): ops/sec for the hot paths of the
//   reproduction — two-bag solve (Lemma 2 / Corollary 1), minimal
//   two-bag witness (Corollary 4), acyclic fold (Theorem 6), and bag
//   join — at two to four sizes each.
//
//   engine_batch: batch-consistency throughput. 100 two-bag queries
//   against ONE sealed collection, answered by a ConsistencyEngine
//   (cached marginals) versus the single-shot path that rebuilds the
//   marginals per query; plus the seal+sweep pairwise pass at 1 and N
//   worker threads. Engine entries carry the single-shot (resp.
//   single-threaded) ops/sec in the baseline field, so the speedup ratio
//   is embedded in the artifact.
//
//   interned_rows: the dictionary-interning speedup on string-heavy
//   workloads. Each benchmark runs the same logical computation twice:
//   over fixed-width interned u32 rows (ValueDictionary + BagCollection)
//   and over a string-keyed oracle pipeline (std::map over external
//   token rows — what every comparison would cost without interning,
//   i.e. the pre-interning baseline for string data). Interned entries
//   carry the oracle's ops/sec in the baseline field, so the speedup is
//   embedded in the artifact. Suites: two-bag solve, pairwise sweep,
//   engine batch.
//
//   columnar_probe: the columnar bag kernels. Small marginals
//   (Bag::Marginal on BagBuilder output of 4/16/32 rows onto |Z| = 2 and
//   3 — the sizes the small-input grouping arm serves; 32 is the hashed
//   control), a single marginal build (the engine cache-fill kernel), the
//   hash-join matching phase (batch ColumnIndex::ProbeAll), the cyclic
//   GLOBAL at the perfbench write_global shape (global_c4:
//   ConsistencyEngine::Global, the served path; global_c4_build: the CSR
//   program's layout alone), the Tseitin H_7 GLOBAL (global_tseitin_h7: an empty join), and the serial
//   LP row builder. Run with --baseline against an older build's
//   artifact to read every leg as a before/after ratio.
//
//   server_session: the bagcd dictionary-aware protocol win. One
//   in-process ServerSession runs the same serve cycle (RESET, load all
//   bags, SEAL, query batch) with string rows re-interned every cycle
//   (LOAD) versus DICT-once + streamed u32 rows (LOADU32); a second pair
//   measures steady-state TWOBAG throughput through the protocol vs bare
//   engine calls — in the text framing and, twobag_100q_session_binary,
//   as prebuilt TWOBAG frames through the binary framing. A final trio
//   measures cold ingest (RESET HARD + dictionaries + rows; no SEAL, so
//   the gap is purely the wire path) as text LOADU32 blocks, as binary
//   DICT/ROWS frames, and as one LOADSEG of an mmap-able segment file
//   (docs/SEGMENT.md).
//
//   delta_stream: streaming mutation vs re-sealing. On one 32-bag
//   collection, propagating a change to k of 32 bags into a published
//   generation three ways: INSERT/DELETE delta commits (incremental
//   marginal maintenance — only dirty slots adjust, only dirty pairs
//   re-compare), DROP + re-LOADU32 + plain SEAL (incremental re-seal:
//   bags still holding the previous generation's row stores adopted,
//   re-loaded bags rebuilt), and DROP +
//   re-LOADU32 + SEAL FULL (every store and marginal rebuilt). The
//   reseal legs carry the FULL leg's ops/sec as their baseline. Two WAL
//   legs measure what --wal-dir adds: wal_commit_fsync (one durable
//   4-bag commit record — encode, O_APPEND write, fdatasync) and
//   wal_replay_32gen (reading + checksum-validating a 32-generation
//   log, the startup recovery read path).
//
// Usage:
//   bench_main [--suite bag_refactor|engine_batch|interned_rows|columnar_probe|
//               server_session|delta_stream] [--out FILE] [--baseline FILE]
//               [--list-suites]
//
// With --baseline, each benchmark entry additionally carries the baseline's
// ops/sec for the same (name, size) pair plus the speedup ratio, so a
// before/after comparison lives in one artifact. The baseline file is a
// JSON file previously produced by this tool.
//
// Every suite's JSON records host_cpus, the compiler, and the compile
// flags (BAGC_COMPILE_FLAGS, injected by CMake) so parallel and
// vectorization-sensitive legs stay interpretable after the fact.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/global.h"
#include "core/tseitin.h"
#include "core/two_bag.h"
#include "engine/consistency_engine.h"
#include "generators/workloads.h"
#include "hypergraph/families.h"
#include "server/engine_snapshot.h"
#include "server/protocol.h"
#include "server/session.h"
#include "tuple/segment.h"
#include "tuple/column_index.h"
#include "tuple/value_dictionary.h"
#include "tuple/wal.h"
#include "solver/integer_feasibility.h"
#include "solver/lp.h"
#include "util/random.h"

// Injected by CMake so the artifact records how the binary was compiled.
#ifndef BAGC_COMPILE_FLAGS
#define BAGC_COMPILE_FLAGS "(unknown)"
#endif

namespace bagc {
namespace {

struct BenchResult {
  std::string name;
  size_t size;
  double ops_per_sec;
  size_t iterations;
  double baseline_ops_per_sec = 0;  // 0 = no baseline
};

// Set when a parallel leg (tN sweep) ran on a host with one CPU: its
// speedup ratio then measures scheduling overhead, not parallelism. The
// artifact records it (single_cpu_warning) and the run warns on stderr.
bool g_parallel_legs_on_single_cpu = false;

// Runs `op` repeatedly until it has consumed at least `min_seconds`,
// reporting ops/sec over the timed window. One untimed warmup call.
template <typename Op>
BenchResult Measure(const std::string& name, size_t size, Op&& op,
                    double min_seconds = 0.2) {
  using Clock = std::chrono::steady_clock;
  op();  // warmup
  size_t iterations = 0;
  auto start = Clock::now();
  double elapsed = 0;
  do {
    op();
    ++iterations;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds);
  BenchResult r;
  r.name = name;
  r.size = size;
  r.iterations = iterations;
  r.ops_per_sec = static_cast<double>(iterations) / elapsed;
  return r;
}

// Measures `repeats` times, each over fresh inputs: make_op() builds the
// inputs and returns the op that runs on them. Reports the median run, so
// a leg's reading does not hang on the heap state the legs before it (or
// its own earlier repeats) left behind.
template <typename MakeOp>
BenchResult MeasureMedian(const std::string& name, size_t size, int repeats,
                          MakeOp&& make_op) {
  std::vector<BenchResult> runs;
  for (int r = 0; r < repeats; ++r) runs.push_back(Measure(name, size, make_op()));
  std::sort(runs.begin(), runs.end(), [](const BenchResult& a, const BenchResult& b) {
    return a.ops_per_sec < b.ops_per_sec;
  });
  return runs[runs.size() / 2];
}

std::pair<Bag, Bag> MakeTwoBagInput(size_t support, uint64_t seed) {
  Rng rng(seed);
  BagGenOptions options;
  options.support_size = support;
  options.domain_size = std::max<uint64_t>(2, support / 4);
  options.max_multiplicity = 1u << 16;
  Schema x{{0, 1}};
  Schema y{{1, 2}};
  return *MakeConsistentPair(x, y, options, &rng);
}

BagCollection MakeFoldInput(size_t support, uint64_t seed) {
  Rng rng(seed);
  BagGenOptions options;
  options.support_size = support;
  options.domain_size = std::max<uint64_t>(2, support / 4);
  options.max_multiplicity = 1u << 10;
  Hypergraph h = *MakePath(4);
  return *MakeGloballyConsistentCollection(h, options, &rng);
}

// Minimal scanner for the JSON this tool writes: pulls out the
// (name, size, ops_per_sec) triples in order of appearance.
std::vector<BenchResult> ParseBaseline(const std::string& text) {
  std::vector<BenchResult> out;
  size_t pos = 0;
  auto find_value = [&](const char* key, size_t from, size_t* value_at) {
    std::string needle = std::string("\"") + key + "\":";
    size_t k = text.find(needle, from);
    if (k == std::string::npos) return false;
    *value_at = k + needle.size();
    return true;
  };
  while (true) {
    size_t name_at;
    if (!find_value("name", pos, &name_at)) break;
    size_t q1 = text.find('"', name_at);
    size_t q2 = q1 == std::string::npos ? q1 : text.find('"', q1 + 1);
    if (q2 == std::string::npos) break;
    std::string name = text.substr(q1 + 1, q2 - q1 - 1);
    size_t size_at, ops_at;
    if (!find_value("size", q2, &size_at) ||
        !find_value("ops_per_sec", q2, &ops_at)) {
      pos = q2 + 1;
      continue;
    }
    BenchResult r;
    r.name = name;
    r.size = std::strtoull(text.c_str() + size_at, nullptr, 10);
    r.ops_per_sec = std::strtod(text.c_str() + ops_at, nullptr);
    r.iterations = 0;
    out.push_back(std::move(r));
    pos = ops_at;
  }
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    unsigned char u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", u);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// Compiler identity, for the artifact header.
std::string CompilerVersion() {
#if defined(__VERSION__)
  return __VERSION__;
#else
  return "(unknown)";
#endif
}

// The batch workload: one sealed circulant collection (3-uniform, so
// neighboring bags share two attributes and their marginals are real
// work), plus a fixed list of 100 random two-bag queries against it.
BagCollection MakeBatchCollection(size_t support, uint64_t seed) {
  Rng rng(seed);
  BagGenOptions options;
  options.support_size = support;
  options.domain_size = std::max<uint64_t>(4, support / 16);
  options.max_multiplicity = 1u << 10;
  Hypergraph h = *MakeCirculant(16, 3);
  return *MakeGloballyConsistentCollection(h, options, &rng);
}

std::vector<std::pair<size_t, size_t>> MakeBatchQueries(size_t m, size_t n,
                                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<size_t, size_t>> queries;
  queries.reserve(n);
  while (queries.size() < n) {
    size_t i = rng.Below(m);
    size_t j = rng.Below(m);
    if (i != j) queries.emplace_back(i, j);
  }
  return queries;
}

void RunEngineBatchSuite(std::vector<BenchResult>* results) {
  constexpr size_t kQueries = 100;
  size_t n_threads =
      std::max<size_t>(2, std::min<size_t>(8, std::thread::hardware_concurrency()));
  if (std::thread::hardware_concurrency() <= 1) {
    g_parallel_legs_on_single_cpu = true;
  }

  for (size_t support : {256, 1024, 4096}) {
    BagCollection c = MakeBatchCollection(support, 9000 + support);
    std::vector<std::pair<size_t, size_t>> queries =
        MakeBatchQueries(c.size(), kQueries, 77);

    // Per-query rebuild: every query recomputes both shared marginals.
    BenchResult single_shot =
        Measure("batch_100q_single_shot", support, [&] {
          size_t consistent = 0;
          for (auto [i, j] : queries) {
            if (*AreConsistent(c.bag(i), c.bag(j))) ++consistent;
          }
          if (consistent == 0) std::abort();
        });

    // Sealed engine: the same 100 queries against cached marginals (the
    // seal itself is amortized across the batch, so it sits outside the
    // timed op, matching the server workload the engine targets).
    ConsistencyEngine engine = *ConsistencyEngine::Make(c);
    BenchResult batch = Measure("batch_100q_engine", support, [&] {
      size_t consistent = 0;
      for (auto [i, j] : queries) {
        if (*engine.TwoBag(i, j)) ++consistent;
      }
      if (consistent == 0) std::abort();
    });
    batch.baseline_ops_per_sec = single_shot.ops_per_sec;
    results->push_back(single_shot);
    results->push_back(std::move(batch));

    // Seal + full pairwise sweep, single-threaded vs N workers (the sweep
    // memoizes, so each op builds a fresh engine — this measures the
    // parallel marginal precompute plus the sharded compare; the
    // collection copy is a refcount bump per bag). Note the tN leg
    // also pays OS-thread spawns/joins per op (the seal's threads live
    // only for the seal), so its ratio understates the steady-state sweep
    // speedup.
    BenchResult sweep1 = Measure("pairwise_seal_sweep_t1", support, [&] {
      ConsistencyEngine e = *ConsistencyEngine::Make(c);
      if (!(*e.PairwiseAll()).consistent) std::abort();
    });
    EngineOptions par;
    par.num_threads = n_threads;
    BenchResult sweepN =
        Measure("pairwise_seal_sweep_t" + std::to_string(n_threads), support, [&] {
          ConsistencyEngine e = *ConsistencyEngine::Make(c, par);
          if (!(*e.PairwiseAll()).consistent) std::abort();
        });
    sweepN.baseline_ops_per_sec = sweep1.ops_per_sec;
    results->push_back(std::move(sweep1));
    results->push_back(std::move(sweepN));
  }
}

// ---- interned_rows suite ---------------------------------------------------

using StrRow = std::vector<std::string>;
using StrTable = std::vector<std::pair<StrRow, uint64_t>>;  // one bag's rows
using StrBag = std::map<StrRow, uint64_t>;

// String-heavy external token: shared prefix + per-attribute salt + value,
// ~28 chars, so every oracle comparison pays real string work (exactly
// what tuple compares cost before values were interned).
std::string Token(AttrId a, Value v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "warehouse_attr%02u_item_%08lld", a,
                static_cast<long long>(v));
  return buf;
}

// One collection, three synchronized representations: the external string
// tables (oracle input), the interned bags sealed through one shared
// DictionarySet (engine input), and the dictionaries themselves.
struct StringWorkload {
  BagCollection interned;
  std::shared_ptr<DictionarySet> dicts;
  std::vector<StrTable> tables;  // per bag, external rows
};

StringWorkload MakeStringWorkload(const BagCollection& numeric) {
  StringWorkload w;
  w.dicts = std::make_shared<DictionarySet>();
  std::vector<Bag> interned;
  for (const Bag& b : numeric.bags()) {
    StrTable table;
    table.reserve(b.SupportSize());
    BagBuilder builder(b.schema());
    builder.Reserve(b.SupportSize());
    for (size_t e = 0; e < b.SupportSize(); ++e) {
      Tuple t = b.RowAt(e);
      uint64_t mult = b.MultiplicityAt(e);
      StrRow row(b.schema().arity());
      for (size_t i = 0; i < row.size(); ++i) row[i] = Token(b.schema().at(i), t.at(i));
      if (!builder.AddExternal(row, mult, w.dicts.get()).ok()) std::abort();
      table.emplace_back(std::move(row), mult);
    }
    Bag sealed = *builder.Build();
    interned.push_back(std::move(sealed));
    w.tables.push_back(std::move(table));
  }
  w.interned = *BagCollection::Make(std::move(interned));
  return w;
}

// The oracle's marginal: group external rows by their projection slots.
StrBag OracleMarginal(const StrTable& table, const std::vector<size_t>& slots) {
  StrBag out;
  StrRow projected(slots.size());
  for (const auto& [row, mult] : table) {
    for (size_t i = 0; i < slots.size(); ++i) projected[i] = row[slots[i]];
    out[projected] += mult;
  }
  return out;
}

std::vector<size_t> SharedSlots(const Schema& from, const Schema& shared) {
  Projector proj = *Projector::Make(from, shared);
  std::vector<size_t> slots(proj.arity());
  for (size_t i = 0; i < proj.arity(); ++i) slots[i] = proj.SourceIndex(i);
  return slots;
}

void RunInternedRowsSuite(std::vector<BenchResult>* results) {
  // Two-bag solve (Lemma 2(2)): decide consistency of a consistent pair.
  // Interned: marginal + compare over u32 rows. Oracle: marginal + compare
  // over string-keyed maps.
  for (size_t support : {256, 1024}) {
    Rng rng(3000 + support);
    BagGenOptions options;
    options.support_size = support;
    options.domain_size = std::max<uint64_t>(4, support / 4);
    options.max_multiplicity = 1u << 10;
    auto [r, s] = *MakeConsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
    BagCollection pair_c = *BagCollection::Make({r, s});
    StringWorkload w = MakeStringWorkload(pair_c);
    Schema shared = Schema::Intersect(r.schema(), s.schema());
    std::vector<size_t> slots_r = SharedSlots(r.schema(), shared);
    std::vector<size_t> slots_s = SharedSlots(s.schema(), shared);

    BenchResult oracle = Measure("two_bag_string_oracle", support, [&] {
      if (OracleMarginal(w.tables[0], slots_r) != OracleMarginal(w.tables[1], slots_s)) {
        std::abort();
      }
    });
    BenchResult interned = Measure("two_bag_interned", support, [&] {
      if (!*AreConsistent(w.interned.bag(0), w.interned.bag(1))) std::abort();
    });
    interned.baseline_ops_per_sec = oracle.ops_per_sec;
    results->push_back(std::move(oracle));
    results->push_back(std::move(interned));
  }

  // Pairwise sweep over a circulant collection (every neighboring pair
  // shares two attributes). Interned: seal + sweep via the engine.
  // Oracle: all-pairs string marginal maps + compares.
  for (size_t support : {256, 1024}) {
    BagCollection c = MakeBatchCollection(support, 5000 + support);
    StringWorkload w = MakeStringWorkload(c);
    size_t m = c.size();

    BenchResult oracle = Measure("pairwise_sweep_string_oracle", support, [&] {
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = i + 1; j < m; ++j) {
          Schema shared =
              Schema::Intersect(c.bag(i).schema(), c.bag(j).schema());
          if (OracleMarginal(w.tables[i], SharedSlots(c.bag(i).schema(), shared)) !=
              OracleMarginal(w.tables[j], SharedSlots(c.bag(j).schema(), shared))) {
            std::abort();
          }
        }
      }
    });
    BenchResult interned = Measure("pairwise_sweep_interned", support, [&] {
      ConsistencyEngine e = *ConsistencyEngine::Make(w.interned);
      if (!(*e.PairwiseAll()).consistent) std::abort();
    });
    interned.baseline_ops_per_sec = oracle.ops_per_sec;
    results->push_back(std::move(oracle));
    results->push_back(std::move(interned));
  }

  // Engine batch: 100 two-bag queries against one sealed collection; both
  // sides may cache their marginals (maps for the oracle, interned bags +
  // probes for the engine) — the measured gap is purely the row
  // representation on the compare path.
  for (size_t support : {256, 1024}) {
    constexpr size_t kQueries = 100;
    BagCollection c = MakeBatchCollection(support, 7000 + support);
    StringWorkload w = MakeStringWorkload(c);
    std::vector<std::pair<size_t, size_t>> queries =
        MakeBatchQueries(c.size(), kQueries, 177);

    // Oracle cache: per-pair marginal maps, built once outside the timed op.
    std::map<std::pair<size_t, size_t>, std::pair<StrBag, StrBag>> oracle_cache;
    for (auto [i, j] : queries) {
      if (oracle_cache.count({i, j})) continue;
      Schema shared = Schema::Intersect(c.bag(i).schema(), c.bag(j).schema());
      oracle_cache[{i, j}] = {
          OracleMarginal(w.tables[i], SharedSlots(c.bag(i).schema(), shared)),
          OracleMarginal(w.tables[j], SharedSlots(c.bag(j).schema(), shared))};
    }
    BenchResult oracle = Measure("engine_batch_string_oracle", support, [&] {
      size_t consistent = 0;
      for (auto [i, j] : queries) {
        const auto& [mi, mj] = oracle_cache[{i, j}];
        if (mi == mj) ++consistent;
      }
      if (consistent == 0) std::abort();
    });

    ConsistencyEngine engine = *ConsistencyEngine::Make(w.interned);
    BenchResult interned = Measure("engine_batch_interned", support, [&] {
      size_t consistent = 0;
      for (auto [i, j] : queries) {
        if (*engine.TwoBag(i, j)) ++consistent;
      }
      if (consistent == 0) std::abort();
    });
    interned.baseline_ops_per_sec = oracle.ops_per_sec;
    results->push_back(std::move(oracle));
    results->push_back(std::move(interned));
  }
}

// ---- server_session suite --------------------------------------------------

// The bagcd session-protocol cost model: the same serve cycle — RESET,
// load every bag, SEAL, answer a query batch — driven through an
// in-process ServerSession twice. The strings leg streams external
// tokens (LOAD): every value pays a string hash + dictionary lookup on
// every cycle, which is what a server without the dictionary-aware
// protocol would do. The u32 leg ships each attribute's DICT block once
// per session (untimed, like a real session's handshake) and then
// streams LOADU32 raw-id rows: integer parse + bounds check, no string
// ever touches the hot path. Same bags, same seal, same queries — the
// measured gap is purely the wire value representation. A third pair
// measures steady-state query throughput through the protocol against
// bare engine calls (the protocol tax).
BagCollection MakeSessionCollection(size_t support, uint64_t seed) {
  Rng rng(seed);
  BagGenOptions options;
  options.support_size = support;
  options.domain_size = std::max<uint64_t>(8, support / 4);  // string-heavy
  options.max_multiplicity = 1u << 10;
  Hypergraph h = *MakePath(4);
  return *MakeGloballyConsistentCollection(h, options, &rng);
}

// The DICT blocks for every dictionary of the workload, in attribute
// order (the session handshake a dictionary-aware client sends once).
std::string SessionDictScript(const StringWorkload& w, const Schema& all_attrs,
                              const AttributeCatalog& catalog) {
  std::string script;
  for (AttrId a : all_attrs.attrs()) {
    const ValueDictionary* dict = w.dicts->find_dict(a);
    if (dict == nullptr) continue;
    script += "DICT " + catalog.Name(a) + " " + std::to_string(dict->size()) + "\n";
    for (size_t id = 0; id < dict->size(); ++id) {
      script += dict->ExternalOf(static_cast<ValueId>(id));
      script += '\n';
    }
    script += "END\n";
  }
  return script;
}

// One full serve cycle, string rows: RESET + LOAD every bag + SEAL + queries.
std::string SessionCycleStrings(const StringWorkload& w,
                                const AttributeCatalog& catalog,
                                const std::string& query_script) {
  std::string script = "RESET\n";
  for (size_t b = 0; b < w.interned.size(); ++b) {
    const Bag& bag = w.interned.bag(b);
    script += "LOAD b" + std::to_string(b);
    for (AttrId a : bag.schema().attrs()) script += " " + catalog.Name(a);
    script += "\n";
    for (const auto& [row, mult] : w.tables[b]) {
      for (const std::string& token : row) script += token + " ";
      script += ": " + std::to_string(mult) + "\n";
    }
    script += "END\n";
  }
  script += "SEAL\n" + query_script;
  return script;
}

// The LOADU32 blocks for every bag of the workload (raw-id rows).
std::string SessionLoadU32Blocks(const StringWorkload& w,
                                 const AttributeCatalog& catalog) {
  std::string script;
  for (size_t b = 0; b < w.interned.size(); ++b) {
    const Bag& bag = w.interned.bag(b);
    script += "LOADU32 b" + std::to_string(b);
    for (AttrId a : bag.schema().attrs()) script += " " + catalog.Name(a);
    script += "\n";
    for (size_t e = 0; e < bag.SupportSize(); ++e) {
      for (size_t i = 0; i < bag.schema().arity(); ++i) {
        script += std::to_string(bag.IdAt(e, i)) + " ";
      }
      script += ": " + std::to_string(bag.MultiplicityAt(e)) + "\n";
    }
    script += "END\n";
  }
  return script;
}

// The same cycle with LOADU32 raw-id rows.
std::string SessionCycleU32(const StringWorkload& w,
                            const AttributeCatalog& catalog,
                            const std::string& query_script) {
  return "RESET\n" + SessionLoadU32Blocks(w, catalog) + "SEAL\n" + query_script;
}

// Feeds a script and aborts on any ERR response (a benchmark must not
// quietly measure a failing protocol exchange).
void DriveSession(ServerSession* session, const std::string& script) {
  std::vector<std::string> responses = session->HandleScript(script);
  for (const std::string& line : responses) {
    if (line.rfind("ERR", 0) == 0) {
      std::fprintf(stderr, "DriveSession: %s\n", line.c_str());
      std::abort();
    }
  }
}

// Feeds prebuilt binary frames and aborts on any Err frame or truncated
// response (the binary-framing counterpart of DriveSession).
void DriveSessionBinary(ServerSession* session, const std::string& frames) {
  std::string out;
  if (session->HandleData(frames, &out) != ServerSession::Outcome::kContinue) {
    std::abort();
  }
  size_t pos = 0;
  while (pos + kWireFrameHeaderBytes <= out.size()) {
    const unsigned char* p = reinterpret_cast<const unsigned char*>(out.data() + pos);
    uint32_t len = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
                   (static_cast<uint32_t>(p[2]) << 16) |
                   (static_cast<uint32_t>(p[3]) << 24);
    if (p[4] == kFrameErr) std::abort();
    pos += kWireFrameHeaderBytes + len;
  }
  if (pos != out.size()) std::abort();
}

// Switches an in-process session to the binary framing (the one text
// exchange a real binary client performs before streaming frames).
void UpgradeSessionToBinary(ServerSession* session) {
  std::string out;
  if (session->HandleData("UPGRADE BINARY\n", &out) !=
          ServerSession::Outcome::kContinue ||
      !session->binary_mode()) {
    std::abort();
  }
}

// The binary-framing image of one cold ingest cycle: CMD RESET HARD,
// one DICT frame per dictionary, one ROWS frame per bag.
std::string BinaryIngestCycle(const StringWorkload& w,
                              const AttributeCatalog& catalog) {
  std::string frames;
  WireAppendFrame(&frames, kFrameCmd, "RESET HARD");
  for (AttrId a : w.interned.union_schema().attrs()) {
    const ValueDictionary* dict = w.dicts->find_dict(a);
    if (dict == nullptr) continue;
    std::string payload;
    WireAppendString(&payload, catalog.Name(a));
    WireAppendU32(&payload, static_cast<uint32_t>(dict->size()));
    for (size_t id = 0; id < dict->size(); ++id) {
      WireAppendString(&payload, dict->ExternalOf(static_cast<ValueId>(id)));
    }
    WireAppendFrame(&frames, kFrameDict, payload);
  }
  for (size_t b = 0; b < w.interned.size(); ++b) {
    const Bag& bag = w.interned.bag(b);
    std::string payload;
    WireAppendString(&payload, "b" + std::to_string(b));
    WireAppendU32(&payload, static_cast<uint32_t>(bag.schema().arity()));
    for (AttrId a : bag.schema().attrs()) {
      WireAppendString(&payload, catalog.Name(a));
    }
    WireAppendU64(&payload, bag.SupportSize());
    for (size_t e = 0; e < bag.SupportSize(); ++e) {
      for (size_t i = 0; i < bag.schema().arity(); ++i) {
        WireAppendU32(&payload, bag.IdAt(e, i));
      }
      WireAppendU64(&payload, bag.MultiplicityAt(e));
    }
    WireAppendFrame(&frames, kFrameRows, payload);
  }
  return frames;
}

void RunServerSessionSuite(std::vector<BenchResult>* results) {
  for (size_t support : {1024, 4096}) {
    BagCollection numeric = MakeSessionCollection(support, 11000 + support);
    StringWorkload w = MakeStringWorkload(numeric);
    AttributeCatalog catalog;
    for (AttrId a : w.interned.union_schema().attrs()) {
      catalog.Intern("attr" + std::to_string(a));
    }
    std::string queries = "PAIRWISE\n";
    for (size_t i = 0; i < w.interned.size(); ++i) {
      for (size_t j = i + 1; j < w.interned.size(); ++j) {
        queries += "TWOBAG " + std::to_string(i) + " " + std::to_string(j) + "\n";
      }
    }
    std::string dict_script = SessionDictScript(w, w.interned.union_schema(), catalog);
    std::string cycle_strings = SessionCycleStrings(w, catalog, queries);
    std::string cycle_u32 = SessionCycleU32(w, catalog, queries);

    // Strings every cycle: each session keeps its live dictionaries
    // (RESET, not RESET HARD), so the oracle leg pays re-interning —
    // hash + lookup per token — not dictionary construction.
    CollectionRegistry strings_registry;
    ServerSession strings_session(&strings_registry, nullptr);
    DriveSession(&strings_session, dict_script);
    BenchResult strings = Measure("session_cycle_strings", support, [&] {
      DriveSession(&strings_session, cycle_strings);
    });

    // Dictionary once, u32 rows every cycle.
    CollectionRegistry u32_registry;
    ServerSession u32_session(&u32_registry, nullptr);
    DriveSession(&u32_session, dict_script);
    BenchResult u32 = Measure("session_cycle_u32", support, [&] {
      DriveSession(&u32_session, cycle_u32);
    });
    u32.baseline_ops_per_sec = strings.ops_per_sec;
    results->push_back(std::move(strings));
    results->push_back(std::move(u32));
  }

  // Steady-state query throughput: 100 TWOBAGs through the protocol per
  // op against the same 100 answered by bare engine calls — the whole
  // session/framing overhead, measured on a sealed snapshot.
  for (size_t support : {1024}) {
    constexpr size_t kQueries = 100;
    BagCollection c = MakeBatchCollection(support, 13000 + support);
    StringWorkload w = MakeStringWorkload(c);
    AttributeCatalog catalog;
    for (AttrId a : w.interned.union_schema().attrs()) {
      catalog.Intern("attr" + std::to_string(a));
    }
    std::vector<std::pair<size_t, size_t>> queries =
        MakeBatchQueries(c.size(), kQueries, 277);

    ConsistencyEngine engine = *ConsistencyEngine::Make(w.interned);
    BenchResult direct = Measure("twobag_100q_engine_direct", support, [&] {
      size_t consistent = 0;
      for (auto [i, j] : queries) {
        if (*engine.TwoBag(i, j)) ++consistent;
      }
      if (consistent == 0) std::abort();
    });

    CollectionRegistry registry;
    ServerSession session(&registry, nullptr);
    DriveSession(&session, SessionDictScript(w, w.interned.union_schema(), catalog));
    DriveSession(&session, SessionCycleU32(w, catalog, ""));
    std::string query_script;
    for (auto [i, j] : queries) {
      query_script +=
          "TWOBAG " + std::to_string(i) + " " + std::to_string(j) + "\n";
    }
    BenchResult wire = Measure("twobag_100q_session", support, [&] {
      DriveSession(&session, query_script);
    });
    wire.baseline_ops_per_sec = direct.ops_per_sec;

    // The same 100 queries as one prebuilt batch of TWOBAG frames: no
    // decimal parsing, no response formatting — the binary framing's
    // steady-state protocol tax against the same bare-engine baseline.
    CollectionRegistry bin_registry;
    ServerSession bin_session(&bin_registry, nullptr);
    DriveSession(&bin_session,
                 SessionDictScript(w, w.interned.union_schema(), catalog));
    DriveSession(&bin_session, SessionCycleU32(w, catalog, ""));
    UpgradeSessionToBinary(&bin_session);
    std::string frame_batch;
    for (auto [i, j] : queries) {
      std::string payload;
      WireAppendU32(&payload, static_cast<uint32_t>(i));
      WireAppendU32(&payload, static_cast<uint32_t>(j));
      WireAppendFrame(&frame_batch, kFrameTwoBag, payload);
    }
    BenchResult binary = Measure("twobag_100q_session_binary", support, [&] {
      DriveSessionBinary(&bin_session, frame_batch);
    });
    binary.baseline_ops_per_sec = direct.ops_per_sec;

    results->push_back(std::move(direct));
    results->push_back(std::move(wire));
    results->push_back(std::move(binary));
  }

  // Cold ingest: RESET HARD (dictionaries wiped) + ship dictionaries +
  // ship every row, per op — the bytes -> loaded-session-bags pipeline
  // with the SEAL (engine build, identical across wire forms) left out
  // so the measured gap is purely the ingest path. Three wire forms:
  // decimal LOADU32 text blocks, binary DICT/ROWS frames, and one
  // LOADSEG of a pre-written mmap-able segment (the segment ships its
  // own dictionaries, which is why every cycle must RESET HARD to be
  // comparable).
  for (size_t support : {4096}) {
    BagCollection numeric = MakeSessionCollection(support, 17000 + support);
    StringWorkload w = MakeStringWorkload(numeric);
    AttributeCatalog catalog;
    for (AttrId a : w.interned.union_schema().attrs()) {
      catalog.Intern("attr" + std::to_string(a));
    }
    std::string dict_script =
        SessionDictScript(w, w.interned.union_schema(), catalog);

    std::string text_cycle =
        "RESET HARD\n" + dict_script + SessionLoadU32Blocks(w, catalog);
    CollectionRegistry text_registry;
    ServerSession text_session(&text_registry, nullptr);
    BenchResult text = Measure("ingest_loadu32_text", support, [&] {
      DriveSession(&text_session, text_cycle);
    });

    std::string bin_cycle = BinaryIngestCycle(w, catalog);
    CollectionRegistry bin_registry;
    ServerSession bin_session(&bin_registry, nullptr);
    UpgradeSessionToBinary(&bin_session);
    BenchResult rows = Measure("ingest_binary_rows", support, [&] {
      DriveSessionBinary(&bin_session, bin_cycle);
    });
    rows.baseline_ops_per_sec = text.ops_per_sec;

    std::vector<std::string> names;
    for (size_t b = 0; b < w.interned.size(); ++b) {
      names.push_back("b" + std::to_string(b));
    }
    std::string seg_path =
        "/tmp/bagc_bench_ingest_" + std::to_string(::getpid()) + ".seg";
    if (!WriteSegmentFile(seg_path, names, w.interned.bags(), catalog,
                          *w.dicts)
             .ok()) {
      std::abort();
    }
    std::string seg_cycle = "RESET HARD\nLOADSEG " + seg_path + "\n";
    CollectionRegistry seg_registry;
    ServerSession seg_session(&seg_registry, nullptr);
    BenchResult seg = Measure("ingest_loadseg", support, [&] {
      DriveSession(&seg_session, seg_cycle);
    });
    seg.baseline_ops_per_sec = text.ops_per_sec;
    std::remove(seg_path.c_str());

    results->push_back(std::move(text));
    results->push_back(std::move(rows));
    results->push_back(std::move(seg));
  }

  // Incremental re-seal: a 32-bag collection where each cycle touches
  // exactly one bag (DROP + re-LOADU32) and re-seals. The FULL leg
  // rebuilds every column store and refills every pairwise marginal; the
  // incremental leg reuses the 31 untouched bags' slots from the
  // previous generation and refills only the touched bag's row — the
  // O(k·m) vs O(m²) claim, measured end-to-end through the protocol.
  {
    constexpr size_t kBags = 32;
    constexpr size_t kSupport = 256;
    Rng rng(23001);
    BagGenOptions options;
    options.support_size = kSupport;
    options.domain_size = 64;
    options.max_multiplicity = 1u << 10;
    BagCollection numeric =
        *MakeGloballyConsistentCollection(*MakePath(kBags), options, &rng);
    StringWorkload w = MakeStringWorkload(numeric);
    AttributeCatalog catalog;
    for (AttrId a : w.interned.union_schema().attrs()) {
      catalog.Intern("attr" + std::to_string(a));
    }
    // The re-LOAD block for bag 0 alone (same rows every cycle: the
    // measured work is the re-seal, not data drift).
    std::string reload_b0 = "DROP b0\nLOADU32 b0";
    const Bag& b0 = w.interned.bag(0);
    for (AttrId a : b0.schema().attrs()) reload_b0 += " " + catalog.Name(a);
    reload_b0 += "\n";
    for (size_t e = 0; e < b0.SupportSize(); ++e) {
      for (size_t i = 0; i < b0.schema().arity(); ++i) {
        reload_b0 += std::to_string(b0.IdAt(e, i)) + " ";
      }
      reload_b0 += ": " + std::to_string(b0.MultiplicityAt(e)) + "\n";
    }
    reload_b0 += "END\n";

    auto prime = [&](ServerSession* session) {
      DriveSession(session,
                   SessionDictScript(w, w.interned.union_schema(), catalog));
      DriveSession(session, SessionLoadU32Blocks(w, catalog) + "SEAL\n");
    };
    CollectionRegistry full_registry;
    ServerSession full_session(&full_registry, nullptr);
    prime(&full_session);
    BenchResult full = Measure("reseal_full_1of32", kBags * kSupport, [&] {
      DriveSession(&full_session, reload_b0 + "SEAL FULL\n");
    });

    CollectionRegistry incr_registry;
    ServerSession incr_session(&incr_registry, nullptr);
    prime(&incr_session);
    BenchResult incr =
        Measure("reseal_incremental_1of32", kBags * kSupport, [&] {
          DriveSession(&incr_session, reload_b0 + "SEAL\n");
        });
    incr.baseline_ops_per_sec = full.ops_per_sec;
    results->push_back(std::move(full));
    results->push_back(std::move(incr));
  }
}

// ---- delta_stream suite ----------------------------------------------------

void RunDeltaStreamSuite(std::vector<BenchResult>* results) {
  // One 32-bag path collection; each leg propagates a change to k of the
  // 32 bags into a published generation. The delta legs alternate an
  // INSERT and a DELETE of the same row per touched bag across
  // iterations, so the collection returns to its base state every two
  // cycles and one iteration is exactly k delta commits; the reseal legs
  // DROP + re-stream the same k bags and seal.
  constexpr size_t kBags = 32;
  constexpr size_t kSupport = 256;
  Rng rng(29001);
  BagGenOptions options;
  options.support_size = kSupport;
  options.domain_size = 64;
  options.max_multiplicity = 1u << 10;
  // MakePath(n) yields n-1 edge bags.
  BagCollection numeric =
      *MakeGloballyConsistentCollection(*MakePath(kBags + 1), options, &rng);
  StringWorkload w = MakeStringWorkload(numeric);
  AttributeCatalog catalog;
  for (AttrId a : w.interned.union_schema().attrs()) {
    catalog.Intern("attr" + std::to_string(a));
  }
  auto prime = [&](ServerSession* session) {
    DriveSession(session,
                 SessionDictScript(w, w.interned.union_schema(), catalog));
    DriveSession(session, SessionLoadU32Blocks(w, catalog) + "SEAL\n");
  };
  // The re-stream block (DROP + LOADU32, same rows) and the delta blocks
  // (INSERT / DELETE of one id-0 row) for bag b.
  auto reload_block = [&](size_t b) {
    const Bag& bag = w.interned.bag(b);
    std::string out = "DROP b" + std::to_string(b) + "\nLOADU32 b" +
                      std::to_string(b);
    for (AttrId a : bag.schema().attrs()) out += " " + catalog.Name(a);
    out += "\n";
    for (size_t e = 0; e < bag.SupportSize(); ++e) {
      for (size_t i = 0; i < bag.schema().arity(); ++i) {
        out += std::to_string(bag.IdAt(e, i)) + " ";
      }
      out += ": " + std::to_string(bag.MultiplicityAt(e)) + "\n";
    }
    return out + "END\n";
  };
  auto delta_block = [&](size_t b, bool insert) {
    const Bag& bag = w.interned.bag(b);
    std::string out = insert ? "INSERT b" : "DELETE b";
    out += std::to_string(b);
    for (AttrId a : bag.schema().attrs()) out += " " + catalog.Name(a);
    out += "\n";
    for (size_t i = 0; i < bag.schema().arity(); ++i) out += "0 ";
    return out + ": 7\nEND\n";
  };

  for (size_t touched : {size_t{1}, size_t{4}, kBags}) {
    std::string suffix =
        "_" + std::to_string(touched) + "of" + std::to_string(kBags);
    std::string reload_all;
    std::string insert_all;
    std::string delete_all;
    for (size_t b = 0; b < touched; ++b) {
      reload_all += reload_block(b);
      insert_all += delta_block(b, /*insert=*/true);
      delete_all += delta_block(b, /*insert=*/false);
    }

    CollectionRegistry full_registry;
    ServerSession full_session(&full_registry, nullptr);
    prime(&full_session);
    BenchResult full = Measure("reseal_full" + suffix, kBags * kSupport, [&] {
      DriveSession(&full_session, reload_all + "SEAL FULL\n");
    });

    CollectionRegistry reuse_registry;
    ServerSession reuse_session(&reuse_registry, nullptr);
    prime(&reuse_session);
    BenchResult reuse = Measure("seal_reuse" + suffix, kBags * kSupport, [&] {
      DriveSession(&reuse_session, reload_all + "SEAL\n");
    });
    reuse.baseline_ops_per_sec = full.ops_per_sec;

    CollectionRegistry delta_registry;
    ServerSession delta_session(&delta_registry, nullptr);
    prime(&delta_session);
    bool inserting = true;
    BenchResult delta =
        Measure("delta_commit" + suffix, kBags * kSupport, [&] {
          DriveSession(&delta_session, inserting ? insert_all : delete_all);
          inserting = !inserting;
        });
    delta.baseline_ops_per_sec = full.ops_per_sec;

    results->push_back(std::move(full));
    results->push_back(std::move(reuse));
    results->push_back(std::move(delta));
  }

  // ---- WAL legs: what --wal-dir adds to the delta path ---------------------
  //
  // wal_commit_fsync: one durable 4-bag commit record per iteration —
  // EncodeWalRecord + O_APPEND write + fdatasync through WalWriter,
  // the incremental cost every acked COMMIT pays for crash safety
  // (dominated by the fdatasync, so ops/sec ~= the storage sync rate).
  // wal_replay_32gen: reading and checksum-validating a 32-generation
  // log (ReadWalFile), the startup recovery read path.
  auto make_record = [](uint64_t generation) {
    WalRecord record;
    record.generation = generation;
    record.base_fingerprint = 0xfeedfacecafef00dull;
    for (uint32_t b = 0; b < 4; ++b) {
      WalBagBlock block;
      block.bag_index = b;
      block.arity = 2;
      for (uint32_t r = 0; r < 4; ++r) {
        block.ids.push_back(r);
        block.ids.push_back(r + 1);
        block.deltas.push_back((r % 2) ? -3 : 7);
      }
      record.bags.push_back(std::move(block));
    }
    return record;
  };

  {
    char path[] = "/tmp/bagc_bench_wal_commit_XXXXXX";
    int fd = ::mkstemp(path);
    if (fd >= 0) ::close(fd);
    ::unlink(path);  // WalWriter::Open lays down its own header
    WalWriter writer = *WalWriter::Open(path);
    uint64_t generation = 0;
    BenchResult commit = Measure("wal_commit_fsync", 1, [&] {
      Status appended = writer.Append(make_record(++generation));
      if (!appended.ok()) std::abort();
    });
    results->push_back(std::move(commit));
    ::unlink(path);
  }

  {
    char path[] = "/tmp/bagc_bench_wal_replay_XXXXXX";
    int fd = ::mkstemp(path);
    if (fd >= 0) ::close(fd);
    ::unlink(path);
    constexpr size_t kGenerations = 32;
    {
      WalWriter writer = *WalWriter::Open(path);
      for (uint64_t g = 1; g <= kGenerations; ++g) {
        if (!writer.Append(make_record(g)).ok()) std::abort();
      }
    }
    BenchResult replay = Measure("wal_replay_32gen", kGenerations, [&] {
      Result<WalContents> log = ReadWalFile(path);
      if (!log.ok() || log->records.size() != kGenerations) std::abort();
    });
    results->push_back(std::move(replay));
    ::unlink(path);
  }
}

// ---- columnar_probe suite --------------------------------------------------

// Marginal-heavy workload: many duplicate shared-attribute pairs (small
// domain relative to support), the shape consistency checking actually
// probes — every marginal collapses rows into far fewer groups.
Bag MakeMarginalInput(size_t support, uint64_t seed) {
  Rng rng(seed);
  BagGenOptions options;
  options.support_size = support;
  options.domain_size = std::max<uint64_t>(4, support / 128);
  options.max_multiplicity = 1u << 10;
  return *MakeRandomBag(Schema{{0, 1, 2}}, options, &rng);
}

// n distinct rows over `arity` attributes, built through BagBuilder: the
// last slot is the row number, the others cycle through 2, 3, 5, ... so
// every marginal dropping the last slot collapses rows into groups.
Bag MakeSmallMarginalInput(size_t n, size_t arity) {
  static constexpr Value kCycles[] = {2, 3, 5};
  std::vector<AttrId> attrs(arity);
  for (size_t a = 0; a < arity; ++a) attrs[a] = static_cast<AttrId>(a);
  BagBuilder builder{Schema{attrs}};
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> row(arity);
    for (size_t a = 0; a + 1 < arity; ++a) {
      row[a] = static_cast<Value>(i) % kCycles[a];
    }
    row[arity - 1] = static_cast<Value>(i);
    if (!builder.Add(Tuple{row}, 1 + i % 7).ok()) std::abort();
  }
  return *builder.Build();
}

void RunColumnarProbeSuite(std::vector<BenchResult>* results) {
  // Small marginals R(X) -> R[Z], |Z| = |X| - 1: below 32 rows the
  // sort-merge grouping arm, at 32 the hashed/dense arms (the control).
  for (size_t z_arity : {2, 3}) {
    const std::string name = "marginal_small_z" + std::to_string(z_arity);
    std::vector<AttrId> z_attrs(z_arity);
    for (size_t a = 0; a < z_arity; ++a) z_attrs[a] = static_cast<AttrId>(a);
    Schema z{z_attrs};
    for (size_t n : {4, 16, 32}) {
      Bag r = MakeSmallMarginalInput(n, z_arity + 1);
      results->push_back(Measure(name, n, [&] {
        Bag m = *r.Marginal(z);
        if (m.SupportSize() == 0) std::abort();
      }));
    }
  }

  // Marginal build R(A,B,C) -> R[{A,B}]: the engine cache-fill kernel —
  // select the two columns, batch-hash, group in place.
  for (size_t support : {256, 1024, 4096}) {
    Bag r = MakeMarginalInput(support, 11000 + support);
    Schema z{{0, 1}};
    results->push_back(Measure("marginal_build_columnar", support, [&] {
      Bag m = *r.Marginal(z);
      if (m.SupportSize() == 0) std::abort();
    }));
  }

  // Hash-join matching phase (the N(R, S) / bag-join probe kernel): index
  // S's shared columns, resolve every R row in one batch ProbeAll.
  for (size_t support : {1024, 4096, 16384}) {
    auto [r, s] = MakeTwoBagInput(support, 13000 + support);
    Schema shared = Schema::Intersect(r.schema(), s.schema());
    Projector r_shared = *Projector::Make(r.schema(), shared);
    Projector s_shared = *Projector::Make(s.schema(), shared);
    results->push_back(Measure("probe_batch_columnar", support, [&] {
      // The exact kernel Bag::Join / TransportationWitness run:
      // zero-copy shared-column views over the bags.
      ColumnJoinMatch match(r.Columns().Select(r_shared),
                            s.Columns().Select(s_shared));
      size_t hits = 0;
      for (size_t i = 0; i < r.SupportSize(); ++i) {
        hits += (match.MatchOf(i) != ColumnJoinMatch::kNoMatch);
      }
      if (hits == 0) std::abort();
    }));
  }

  // The cyclic GLOBAL at the perfbench write_global shape (C4, 1,024 rows
  // per bag, domain 1,024): the engine's served decision, and the CSR
  // program's layout alone.
  for (bool served : {true, false}) {
    results->push_back(MeasureMedian(
        served ? "global_c4" : "global_c4_build", 1024, 5, [served] {
          Rng rng(18000);
          BagGenOptions gen;
          gen.support_size = 1024;
          gen.domain_size = 1024;
          gen.max_multiplicity = 8;
          auto c = std::make_shared<BagCollection>(
              *MakeGloballyConsistentCollection(*MakeCycle(4), gen, &rng));
          auto engine = std::make_shared<ConsistencyEngine>(*ConsistencyEngine::Make(*c));
          return [c, engine, served] {
            if (served) {
              if (!*engine->Global()) std::abort();
            } else if (BuildConsistencyLp(c->bags())->rows.empty()) {
              std::abort();
            }
          };
        }));
  }
  // The Tseitin H_7 GLOBAL: seven pairwise consistent bags of 7,776 rows
  // whose join is empty (Theorem 2 Step 2).
  results->push_back(MeasureMedian("global_tseitin_h7", 7, 5, [] {
    auto c = std::make_shared<BagCollection>(
        *BagCollection::Make(*MakeTseitinCollection(*MakeHn(7))));
    auto engine = std::make_shared<ConsistencyEngine>(*ConsistencyEngine::Make(*c));
    return [c, engine] {
      if (*engine->Global()) std::abort();
    };
  }));

  // P(R1..Rm) LP row builder (one block of rows per bag, in bag order).
  for (size_t support : {256, 1024}) {
    // Path schema keeps the join support under the LP cap (a circulant
    // blows past it); the small domain still yields tens of thousands
    // of LP variables at the top size.
    Rng rng(17000 + support);
    BagGenOptions gen;
    gen.support_size = support;
    gen.domain_size = std::max<uint64_t>(4, support / 64);
    gen.max_multiplicity = 1u << 10;
    Hypergraph h = *MakePath(4);
    BagCollection c = *MakeGloballyConsistentCollection(h, gen, &rng);
    results->push_back(Measure("lp_build_serial", support, [&] {
      ConsistencyLp lp = *BuildConsistencyLp(c.bags());
      if (lp.rows.empty()) std::abort();
    }));
  }
}

void RunBagRefactorSuite(std::vector<BenchResult>* results) {
  // Two-bag solve: decide + build the northwest-corner witness.
  for (size_t support : {64, 256, 1024, 4096}) {
    auto [r, s] = MakeTwoBagInput(support, 42 + support);
    results->push_back(Measure("two_bag_solve", support, [&] {
      auto witness = *FindWitness(r, s);
      if (!witness.has_value()) std::abort();
    }));
  }

  // Minimal two-bag witness (Corollary 4). Under the §5.3 loop this cost
  // one max-flow per middle edge; the corner vertex is already minimal.
  for (size_t support : {1024, 4096}) {
    auto [r, s] = MakeTwoBagInput(support, 4200 + support);
    results->push_back(Measure("two_bag_minimal", support, [&] {
      auto witness = *FindMinimalWitness(r, s);
      if (!witness.has_value()) std::abort();
    }));
  }

  // Acyclic fold: Theorem 6 along a path schema.
  for (size_t support : {16, 64, 256}) {
    BagCollection c = MakeFoldInput(support, 7 + support);
    results->push_back(Measure("acyclic_fold", support, [&] {
      auto witness = *SolveGlobalConsistencyAcyclic(c);
      if (!witness.has_value()) std::abort();
    }));
  }

  // Bag join R(A,B) ⋈_b S(B,C), the median of five runs over fresh inputs.
  for (size_t support : {256, 1024, 4096}) {
    results->push_back(MeasureMedian("bag_join", support, 5, [support] {
      auto inputs = std::make_shared<std::pair<Bag, Bag>>(
          MakeTwoBagInput(support, 1042 + support));
      return [inputs] {
        Bag joined = *Bag::Join(inputs->first, inputs->second);
        if (joined.schema().arity() != 3) std::abort();
      };
    }));
  }
}

// Every suite this binary can run. README's bench-suite list is checked
// against `--list-suites` output in CI (scripts/check_readme_suites.py),
// so adding a suite here without documenting it fails the build.
constexpr const char* kSuites[] = {"bag_refactor", "engine_batch",
                                   "interned_rows", "columnar_probe",
                                   "server_session", "delta_stream"};

int Main(int argc, char** argv) {
  std::string suite = "bag_refactor";
  std::string out_path;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--suite") == 0 && i + 1 < argc) {
      suite = argv[++i];
    } else if (std::strcmp(argv[i], "--list-suites") == 0) {
      for (const char* name : kSuites) std::printf("%s\n", name);
      return 0;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--suite bag_refactor|engine_batch|interned_rows|"
                   "columnar_probe|server_session|delta_stream] [--out FILE] "
                   "[--baseline FILE] [--list-suites]\n",
                   argv[0]);
      return 2;
    }
  }
  bool known = false;
  for (const char* name : kSuites) known = known || suite == name;
  if (!known) {
    std::fprintf(stderr, "unknown suite %s\n", suite.c_str());
    return 2;
  }
  if (out_path.empty()) out_path = "BENCH_" + suite + ".json";

  std::vector<BenchResult> baseline;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
      return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    baseline = ParseBaseline(ss.str());
  }

  std::vector<BenchResult> results;
  if (suite == "engine_batch") {
    RunEngineBatchSuite(&results);
  } else if (suite == "interned_rows") {
    RunInternedRowsSuite(&results);
  } else if (suite == "columnar_probe") {
    RunColumnarProbeSuite(&results);
  } else if (suite == "server_session") {
    RunServerSessionSuite(&results);
  } else if (suite == "delta_stream") {
    RunDeltaStreamSuite(&results);
  } else {
    RunBagRefactorSuite(&results);
  }

  for (BenchResult& r : results) {
    for (const BenchResult& b : baseline) {
      if (b.name == r.name && b.size == r.size) {
        r.baseline_ops_per_sec = b.ops_per_sec;
        break;
      }
    }
  }

  if (g_parallel_legs_on_single_cpu) {
    std::fprintf(stderr,
                 "bench_main: warning: parallel legs ran on a single-CPU "
                 "host; their speedup ratios measure scheduling overhead, "
                 "not parallelism (single_cpu_warning=true in the "
                 "artifact)\n");
  }

  std::ostringstream json;
  json << "{\n  \"suite\": \"" << suite << "\",\n  \"host_cpus\": "
       << std::thread::hardware_concurrency() << ",\n  \"single_cpu_warning\": "
       << (g_parallel_legs_on_single_cpu ? "true" : "false")
       << ",\n  \"compiler\": \""
       << EscapeJson(CompilerVersion()) << "\",\n  \"compile_flags\": \""
       << EscapeJson(BAGC_COMPILE_FLAGS) << "\",\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    json << "    {\"name\": \"" << r.name << "\", \"size\": " << r.size
         << ", \"ops_per_sec\": " << FormatDouble(r.ops_per_sec)
         << ", \"iterations\": " << r.iterations;
    if (r.baseline_ops_per_sec > 0) {
      json << ", \"baseline_ops_per_sec\": " << FormatDouble(r.baseline_ops_per_sec)
           << ", \"speedup\": " << FormatDouble(r.ops_per_sec / r.baseline_ops_per_sec);
    }
    json << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::ofstream out(out_path);
  out << json.str();
  out.close();
  std::fputs(json.str().c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace bagc

int main(int argc, char** argv) { return bagc::Main(argc, argv); }
