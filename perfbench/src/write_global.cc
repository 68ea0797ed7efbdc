// write_global: a cyclic C4 collection served as "default" from
// --preload-seg with --wal-dir. One writer runs a fixed number of
// transactions — BEGIN, a one-row INSERT into all four bags (alternating
// with the matching DELETE), COMMIT, then GLOBAL — while three readers
// send TWOBAG until it finishes. The daemon is then SIGKILLed and
// restarted over the same segment and log, and the restart must replay
// every acked commit and answer exactly as before the kill.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>

#include "daemon.h"
#include "harness.h"
#include "hypergraph/families.h"
#include "inputs.h"
#include "server/engine_snapshot.h"
#include "shadow.h"
#include "solver/integer_feasibility.h"
#include "solver/lp.h"
#include "tuple/wal.h"

namespace perfbench {
namespace {

constexpr size_t kReaders = 3;
// Transactions per second of --seconds: the commit count is fixed by the
// run length alone, so both sides of a comparison replay the same log.
constexpr double kTxnsPerSecond = 200;

bagc::Status ErrStatus(const bagc::Result<std::vector<std::string>>& response) {
  if (!response.ok()) return response.status();
  return bagc::Status::Internal(response->empty() ? "empty response" : response->front());
}

// TWOBAG over every pair i < j, then GLOBAL: the answers the restarted
// daemon must reproduce. -1 marks an error.
std::vector<int> Answers(bagc::BagcdClient* client, size_t m) {
  std::vector<int> out;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      bagc::Result<bool> v = client->TwoBag(i, j);
      out.push_back(v.ok() ? int(*v) : -1);
    }
  }
  bagc::Result<bool> g = client->Global();
  out.push_back(g.ok() ? int(*g) : -1);
  return out;
}

bagc::DeltaBatch BatchFromRecord(const bagc::WalRecord& record) {
  bagc::DeltaBatch batch;
  for (const bagc::WalBagBlock& block : record.bags) {
    bagc::BagDeltas deltas;
    deltas.bag_index = block.bag_index;
    for (size_t r = 0; r < block.rows(); ++r) {
      std::vector<bagc::ValueId> ids(block.ids.begin() + r * block.arity,
                                     block.ids.begin() + (r + 1) * block.arity);
      deltas.deltas.push_back(
          bagc::BagDelta{bagc::Tuple::OfIds(std::move(ids)), block.deltas[r]});
    }
    batch.push_back(std::move(deltas));
  }
  return batch;
}

bagc::WalRecord RecordFromBatch(const bagc::DeltaBatch& batch, uint64_t generation,
                                uint64_t fingerprint) {
  bagc::WalRecord record;
  record.generation = generation;
  record.base_fingerprint = fingerprint;
  for (const bagc::BagDeltas& deltas : batch) {
    bagc::WalBagBlock block;
    block.bag_index = static_cast<uint32_t>(deltas.bag_index);
    block.arity = static_cast<uint32_t>(deltas.deltas.front().row.arity());
    for (const bagc::BagDelta& delta : deltas.deltas) {
      for (size_t c = 0; c < block.arity; ++c) block.ids.push_back(delta.row.id(c));
      block.deltas.push_back(delta.delta);
    }
    record.bags.push_back(std::move(block));
  }
  return record;
}

// tuple.wal.replay_read_us / replay_fold_us / bytes_per_commit over the
// daemon's own log: ReadWalFile, then every record folded through
// EngineSnapshot::BuildDeltaBatch on a base sealed from the inputs.
void MeasureReplay(const Dataset& d, const std::string& wal_path,
                   LayerCounters* counters) {
  uint64_t t0 = NowNs();
  bagc::Result<bagc::WalContents> contents = bagc::ReadWalFile(wal_path);
  uint64_t t1 = NowNs();
  Check(contents.status(), "read " + wal_path);
  counters->replay_read_us = double(t1 - t0) / 1e3;
  const size_t records = contents->records.size();
  if (records == 0) return;
  counters->wal_bytes_per_commit =
      double(contents->valid_bytes - bagc::kWalHeaderBytes) / double(records);

  bagc::EngineSnapshot::BuildInputs inputs;
  inputs.names = d.bag_names;
  inputs.bags = d.bags;
  inputs.catalog = d.catalog;
  inputs.dicts = std::make_shared<bagc::DictionarySet>(d.dicts->Clone());
  bagc::Result<std::shared_ptr<const bagc::EngineSnapshot>> snapshot =
      bagc::EngineSnapshot::Build(std::move(inputs), 1);
  Check(snapshot.status(), "replay base");
  t0 = NowNs();
  for (const bagc::WalRecord& record : contents->records) {
    snapshot = bagc::EngineSnapshot::BuildDeltaBatch(*snapshot, BatchFromRecord(record),
                                                    record.generation);
    Check(snapshot.status(), "replay fold");
  }
  t1 = NowNs();
  counters->replay_fold_us = double(t1 - t0) / 1e3;
}

}  // namespace

RunResult RunWriteGlobal(const RunConfig& config) {
  const size_t rows = config.smoke ? 128 : 1024;
  bagc::Result<bagc::Hypergraph> cycle = bagc::MakeCycle(4);
  Check(cycle.status(), "C4 hypergraph");
  const Dataset d = MakeDataset(*cycle, rows, rows, config.seed,
                                config.work_dir + "/write_global.seg");
  const size_t m = d.num_bags();
  const std::string wal_dir = config.work_dir + "/wal";
  const size_t txns =
      config.smoke ? 9 : (std::max<size_t>(3, size_t(kTxnsPerSecond * config.seconds)) | 1);

  RunResult result;
  result.wal_dir = wal_dir;
  result.daemon_flags = {"--threads", std::to_string(kDaemonThreads), "--preload-seg",
                         d.segment_path, "--wal-dir", wal_dir};

  // Set-up: spawn -> writer's LOADSEG + SEAL (which opens the WAL epoch
  // the commits journal into) -> first answer. Each start-up gets an
  // empty log.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::optional<bagc::BagcdClient> writer;
  for (int rep = 0; rep < SetupReps(config); ++rep) {
    writer.reset();
    daemon.reset();
    std::filesystem::remove_all(wal_dir);
    std::filesystem::create_directories(wal_dir);
    Clock::time_point t0 = Clock::now();
    daemon = Daemon::Start(config.bagcd, result.daemon_flags, config.work_dir);
    writer.emplace(daemon->Connect());
    LoadAndSeal(&*writer, d.segment_path);
    bagc::Result<bool> first = writer->TwoBag(0, 1);
    if (!first.ok() || *first != bool(d.consistent[0][1])) Fail("first TWOBAG answer");
    setup_s.push_back(SecondsSince(t0));
  }

  // The traced twin: a registry with its own WAL directory beside the
  // daemon's, the writer's GLOBAL session, one session per reader, and a
  // probe log that times WalWriter::Append of the run's records.
  std::unique_ptr<Shadow> shadow;
  std::vector<std::unique_ptr<bagc::ServerSession>> sessions;  // writer, readers
  std::optional<bagc::WalWriter> probe_wal;
  uint64_t fingerprint = 0;
  std::vector<SpanBuffer> spans(kReaders + 3);  // writer, readers, sampler, setup
  SpanBuffer& setup_spans = spans[kReaders + 2];
  if (config.trace) {
    bagc::CollectionRegistry::Options options;
    options.wal_dir = config.work_dir + "/shadow_wal";
    std::filesystem::remove_all(options.wal_dir);
    std::filesystem::create_directories(options.wal_dir);
    shadow = std::make_unique<Shadow>(options);
    TimeReloadLayers(d.segment_path, d.Collection(), &setup_spans, 0, 0);
    ShadowLoad(shadow.get(), bagc::kDefaultCollectionName, d.segment_path);
    for (size_t c = 0; c <= kReaders; ++c) {
      sessions.push_back(ShadowSession(shadow.get(), c % 2 == 1));
    }
    bagc::Result<bagc::WalWriter> opened =
        bagc::WalWriter::Open(options.wal_dir + "/append_probe.wal");
    Check(opened.status(), "probe WAL");
    probe_wal.emplace(std::move(opened).value());
    bagc::Result<uint64_t> fp = bagc::SegmentFingerprint(d.segment_path);
    Check(fp.status(), "segment fingerprint");
    fingerprint = *fp;
  }

  std::vector<bagc::BagcdClient> readers;
  for (size_t r = 1; r <= kReaders; ++r) {
    readers.push_back(daemon->Connect());
    if (r % 2 == 1) Check(readers.back().UpgradeBinary(), "UPGRADE BINARY");
  }
  std::vector<size_t> picks;
  {
    bagc::Rng rng(config.seed * 104729 + 1);
    for (size_t k = 0; k <= txns / 2; ++k) picks.push_back(rng.Below(d.witness.SupportSize()));
  }

  LayerCounters counters;
  // The writer drives the slices: its untraced transactions are cut
  // into `slices` equal runs, then come the traced ones (slice index
  // `slices`), then `slices + 1` tells the readers to stop.
  const size_t untraced_txns = config.trace ? txns / 2 : txns;
  const size_t slices = std::min(
      NumSlices(config.trace ? config.seconds / 2 : config.seconds), untraced_txns);
  SliceTallies tallies(slices, kReaders + 1);
  std::atomic<int> slice_now{0};
  std::vector<Clock::time_point> slice_start(slices + 2);
  uint64_t acked = 0;

  auto run_writer = [&] {
    bagc::CollectionRegistry::Collection* shadow_default =
        config.trace ? shadow->registry.Default().get() : nullptr;
    std::string out;
    slice_start[0] = Clock::now();
    for (size_t k = 0; k < txns; ++k) {
      const int slice = k < untraced_txns ? int(k * slices / untraced_txns) : int(slices);
      if (slice != slice_now.load()) {
        slice_start[slice] = Clock::now();
        slice_now.store(slice);
      }
      const bool traced = slice == int(slices);
      ClientTally& tally = tallies.At(slice, 0);
      const bool insert = k % 2 == 0;
      const size_t w = picks[k / 2];
      const uint64_t request = k;

      // BEGIN, one delta per bag, COMMIT: one commit latency sample.
      bool committed = true;
      auto send = [&](const std::string& command, const std::vector<std::string>& body) {
        ++tally.attempted;
        bagc::Result<std::vector<std::string>> response = writer->Command(command, body);
        if (response.ok()) ++tally.completed;
        if (!IsOk(response)) {
          tally.RecordError(ErrStatus(response));
          committed = false;
        }
      };
      uint64_t t0 = NowNs();
      send("BEGIN", {});
      for (size_t b = 0; b < m; ++b) {
        auto [command, row] = DeltaCommand(d, b, w, insert);
        send(command, {row});
      }
      send("COMMIT", {});
      uint64_t t1 = NowNs();
      if (committed) {
        ++acked;
        tally.commit_us.Add(double(t1 - t0) / 1e3);
      }

      // The uncached GLOBAL on the generation just published.
      ++tally.attempted;
      uint64_t t2 = NowNs();
      bagc::Result<bool> global = writer->Global();
      uint64_t t3 = NowNs();
      if (!global.ok()) {
        tally.RecordError(global.status());
      } else {
        ++tally.completed;
        tally.global_us.Add(double(t3 - t2) / 1e3);
        if (!*global) tally.RecordWrong("GLOBAL after commit " + std::to_string(k));
      }
      if (!traced) continue;

      SpanBuffer& trace = spans[0];
      bagc::DeltaBatch batch = DeltaBatchFor(d, w, insert);
      uint32_t root = trace.Add(kCommitRoundTrip, 0, request, t0, t1);
      std::shared_ptr<const bagc::EngineSnapshot> previous =
          shadow->registry.Peek(shadow_default);
      bagc::DeltaOutcome outcome;
      uint64_t b0 = NowNs();
      bagc::Result<std::shared_ptr<const bagc::EngineSnapshot>> next =
          bagc::EngineSnapshot::BuildDeltaBatch(previous, batch, shadow_default->NextSeq(),
                                                &outcome);
      uint64_t b1 = NowNs();
      Check(next.status(), "shadow BuildDeltaBatch");
      trace.Add(kBuildDelta, root, request, b0, b1);
      counters.dirty_pairs.Add(double(outcome.dirty_pairs.size()));
      counters.marginal_fills.Add(double((*next)->marginal_fills()));
      uint64_t p0 = NowNs();
      bagc::Status published = shadow->registry.PublishDelta(shadow_default, *next, batch);
      uint64_t p1 = NowNs();
      Check(published, "shadow PublishDelta");
      uint32_t publish = trace.Add(kPublishDelta, root, request, p0, p1);
      uint64_t a0 = NowNs();
      Check(probe_wal->Append(RecordFromBatch(batch, k + 1, fingerprint)), "probe append");
      uint64_t a1 = NowNs();
      trace.Add(kWalAppend, publish, request, a0, a1);

      uint32_t global_root = trace.Add(kGlobalRoundTrip, 0, request, t2, t3);
      out.clear();
      uint64_t s0 = NowNs();
      sessions[0]->HandleData("GLOBAL\n", &out);
      uint64_t s1 = NowNs();
      uint32_t session = trace.Add(kSessionGlobal, global_root, request, s0, s1);
      const std::vector<bagc::Bag>& bags = (*next)->engine()->collection().bags();
      uint64_t l0 = NowNs();
      bagc::Result<bagc::ConsistencyLp> lp = bagc::BuildConsistencyLp(bags);
      uint64_t l1 = NowNs();
      Check(lp.status(), "BuildConsistencyLp");
      trace.Add(kLpBuild, session, request, l0, l1);
      counters.lp_vars.Add(double(lp->variables.size()));
      counters.lp_rows.Add(double(lp->rows.size()));
      // A search-node-limit failure here is timed like a verdict; the
      // daemon's own GLOBAL above is what counts it as an error.
      uint64_t i0 = NowNs();
      (void)bagc::SolveIntegerFeasibility(*lp);
      uint64_t i1 = NowNs();
      trace.Add(kIntSearch, session, request, i0, i1);
    }
    slice_start[slices + 1] = Clock::now();
    if (!config.trace) slice_start[slices] = slice_start[slices + 1];
    slice_now.store(int(slices) + 1);
  };

  auto run_reader = [&](size_t r) {
    bagc::BagcdClient& client = readers[r - 1];
    const bool binary = r % 2 == 1;
    bagc::Rng rng(config.seed * 7919 + r);
    for (uint64_t request = uint64_t(r) << 48;; ++request) {
      const int slice = slice_now.load();
      if (slice > int(slices)) break;
      ClientTally& tally = tallies.At(slice, r);
      auto [i, j] = RandomPair(&rng, m);
      ++tally.attempted;
      uint64_t t0 = NowNs();
      bagc::Result<bool> verdict = client.TwoBag(i, j);
      uint64_t t1 = NowNs();
      if (!verdict.ok()) {
        tally.RecordError(verdict.status());
        continue;
      }
      ++tally.completed;
      tally.read_us.Add(double(t1 - t0) / 1e3);
      // Every generation stays globally consistent, so each pair keeps
      // its base verdict across commits.
      if (*verdict != bool(d.consistent[i][j])) {
        tally.RecordWrong("TWOBAG " + std::to_string(i) + " " + std::to_string(j));
      }
      if (slice != int(slices)) continue;
      uint32_t root = spans[r].Add(kReadRoundTrip, 0, request, t0, t1);
      ReplayTwoBag(sessions[r].get(),
                   shadow->registry.Peek(shadow->registry.Default().get()).get(), i, j,
                   binary, root, request, &spans[r]);
    }
  };

  RunThreads(kReaders + 2, [&](size_t c) {
    if (c == kReaders + 1) {
      if (config.trace) {
        SampleHandoff(&shadow->pool, [&] {
          int s = slice_now.load();
          return s > int(slices) ? kStop : s == int(slices) ? kSample : kWait;
        }, &spans[kReaders + 1]);
      }
    } else if (c == 0) {
      try {
        run_writer();
      } catch (...) {
        slice_now.store(int(slices) + 1);  // release the readers, then rethrow
        throw;
      }
    } else {
      run_reader(c);
    }
  });

  // Durability: the answers and the acked generation count must survive
  // SIGKILL + restart over the same segment and log.
  const double rss_mb = daemon->PeakRssMb();
  const std::vector<int> before = Answers(&*writer, m);
  std::map<std::string, uint64_t> stats = Stats(&*writer);
  std::map<std::string, uint64_t> tenant = Stats(&*writer, bagc::kDefaultCollectionName);
  if (config.trace) MeasureReplay(d, wal_dir + "/default.wal", &counters);
  ClientTally durability;
  std::vector<double> recovery_s;
  const int recovery_reps = config.smoke || config.trace ? 1 : 3;
  for (int rep = 0; rep < recovery_reps; ++rep) {
    writer.reset();
    Clock::time_point t0 = Clock::now();
    daemon->Kill();
    daemon = Daemon::Start(config.bagcd, result.daemon_flags, config.work_dir);
    bagc::BagcdClient client = daemon->Connect();
    durability.attempted += 3;  // GLOBAL, replayed count, answers
    bagc::Result<bool> global = client.Global();
    if (!global.ok() || !*global) {
      durability.RecordWrong("GLOBAL after restart");
    }
    recovery_s.push_back(SecondsSince(t0));
    uint64_t replayed = Stats(&client)["replayed_generations"];
    if (replayed != acked) {
      durability.RecordWrong("replayed " + std::to_string(replayed) + " of " +
                             std::to_string(acked) + " acked commits");
    }
    if (Answers(&client, m) != before) durability.RecordWrong("answers changed across restart");
  }
  daemon.reset();

  const ClientTally untraced = tallies.Untraced();
  const ClientTally traced = tallies.Traced();
  std::vector<double> slice_seconds;
  for (size_t k = 0; k < slices; ++k) {
    slice_seconds.push_back(
        std::chrono::duration<double>(slice_start[k + 1] - slice_start[k]).count());
  }
  AddCommonEndToEnd(tallies, slice_seconds, setup_s, rss_mb, &result);
  Samples recovery;
  for (double s : recovery_s) recovery.Add(s);
  std::vector<Metric>& e2e = result.end_to_end;
  e2e.push_back({"commit_p50_us", untraced.commit_us.Percentile(0.5), "us", untraced.commit_us.size()});
  e2e.push_back({"commit_p99_us", untraced.commit_us.Percentile(0.99), "us", untraced.commit_us.size()});
  e2e.push_back({"global_p50_us", untraced.global_us.Percentile(0.5), "us", untraced.global_us.size()});
  e2e.push_back({"global_p99_us", untraced.global_us.Percentile(0.99), "us", untraced.global_us.size()});
  e2e.push_back({"recovery_s", recovery.Median(), "s", recovery.size()});
  e2e.push_back({"acked_commits", double(acked), "count", 0});
  e2e.push_back({"wal_records", double(stats["wal_records"]), "count", 0});
  e2e.push_back({"errors.search_node_limit", double(untraced.node_limit + traced.node_limit), "count", 0});
  AddTally(untraced, &result);
  AddTally(traced, &result);
  AddTally(durability, &result);
  if (config.trace) {
    SetRegistryCounters(tenant["hits"], tenant["reloads"], stats["evictions"],
                        untraced.completed + traced.completed, &counters);
    FinishTrace(config, spans, counters, untraced, traced, &result);
  }
  return result;
}

}  // namespace perfbench
