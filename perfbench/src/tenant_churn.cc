// tenant_churn: sixteen segment-backed tenants, each an acyclic 8-bag
// path, under a --mem-budget-mb that holds about a quarter of them. Four
// closed-loop clients repeatedly pick one of their own four tenants with
// Zipf popularity and make one visit: ATTACH, eight TWOBAG, one WITNESS on a random adjacent
// pair. The working set exceeds the registry's cache, so LRU eviction,
// segment Map and the reseal on reload sit on the read path, and WITNESS
// gives the flow layer and witness encoding a measured home.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>

#include "daemon.h"
#include "flow/consistency_network.h"
#include "harness.h"
#include "hypergraph/families.h"
#include "inputs.h"
#include "shadow.h"

namespace perfbench {
namespace {

constexpr size_t kClients = 4;
constexpr size_t kPathVertices = 9;  // 8 bags per tenant
constexpr size_t kReadsPerVisit = 8;
constexpr double kZipfExponent = 1.0;
// A tenant seals to ~0.55 MiB (STATS <name> bytes), so 3 MiB keeps 5
// of the 16 resident: each client's current tenant fits, the rest of
// its four churn through.
constexpr size_t kMemBudgetMb = 3;

bool BinaryClient(size_t c) { return c >= kClients / 2; }

std::string TenantName(size_t k) {
  return (k < 10 ? "t0" : "t") + std::to_string(k);
}

// CollectionRegistry::Acquire of the shadow tenant as its own root span
// (the replayed HandleData that follows then finds the tenant resident),
// split by whether it reloaded; a reload also times its Map and seal
// halves. An empty snapshot for a sealed tenant is the reload race.
bagc::Result<std::shared_ptr<const bagc::EngineSnapshot>> AcquireTraced(
    Shadow* shadow, bagc::CollectionRegistry::Collection* tenant, const Dataset& d,
    uint64_t request, SpanBuffer* trace, std::atomic<uint64_t>* spurious_empty) {
  const bool resident = shadow->registry.Peek(tenant) != nullptr;
  uint64_t a0 = NowNs();
  bagc::Result<std::shared_ptr<const bagc::EngineSnapshot>> snapshot =
      shadow->registry.Acquire(tenant);
  uint64_t a1 = NowNs();
  uint32_t acquire = trace->Add(resident ? kAcquireHit : kAcquireReload, 0, request, a0, a1);
  if (snapshot.ok() && *snapshot == nullptr) spurious_empty->fetch_add(1);
  if (!resident) TimeReloadLayers(d.segment_path, d.Collection(), trace, acquire, request);
  return snapshot;
}

}  // namespace

RunResult RunTenantChurn(const RunConfig& config) {
  const size_t num_tenants = config.smoke ? 8 : 16;
  const size_t rows = 4096;
  bagc::Result<bagc::Hypergraph> path = bagc::MakePath(kPathVertices);
  Check(path.status(), "path hypergraph");
  std::vector<Dataset> tenants;
  for (size_t k = 0; k < num_tenants; ++k) {
    tenants.push_back(MakeDataset(*path, rows, rows, config.seed * 131 + k,
                                  config.work_dir + "/" + TenantName(k) + ".seg"));
  }
  const size_t m = tenants[0].num_bags();

  // Zipf popularity: tenant k has weight 1 / (k + 1)^s. Client c visits
  // only the tenants k = c (mod 4), so no two clients ever reload one
  // tenant at once: concurrent reloads of one tenant can race in
  // CollectionRegistry::Acquire (an older reload whose seq is below a
  // newer, already evicted reload's answers E_STATE), and a workload must
  // not fail by construction. errors.no_sealed_engine and
  // server.registry.spurious_empty still count that failure if it shows.
  std::vector<std::vector<size_t>> owned(kClients);
  std::vector<std::vector<double>> cdf(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    double total = 0;
    for (size_t k = c; k < num_tenants; k += kClients) {
      total += 1.0 / std::pow(double(k + 1), kZipfExponent);
      owned[c].push_back(k);
      cdf[c].push_back(total);
    }
    for (double& w : cdf[c]) w /= total;
  }

  RunResult result;
  result.daemon_flags = {"--threads", std::to_string(kDaemonThreads), "--mem-budget-mb",
                         std::to_string(kMemBudgetMb)};

  // Set-up: spawn -> every tenant loaded and sealed (four loaders in
  // parallel) -> first answer.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < SetupReps(config); ++rep) {
    daemon.reset();
    Clock::time_point t0 = Clock::now();
    daemon = Daemon::Start(config.bagcd, result.daemon_flags, config.work_dir);
    RunThreads(kClients, [&](size_t c) {
      for (size_t k = c; k < num_tenants; k += kClients) {
        // One connection per tenant: a session interns one segment's
        // dictionaries.
        bagc::BagcdClient loader = daemon->Connect();
        if (!IsOk(loader.Command("ATTACH " + TenantName(k)))) Fail("ATTACH " + TenantName(k));
        LoadAndSeal(&loader, tenants[k].segment_path);
      }
    });
    bagc::BagcdClient probe = daemon->Connect();
    if (!IsOk(probe.Command("ATTACH " + TenantName(0)))) Fail("ATTACH " + TenantName(0));
    bagc::Result<bool> first = probe.TwoBag(0, 1);
    if (!first.ok() || *first != bool(tenants[0].consistent[0][1])) {
      Fail("first TWOBAG answer");
    }
    setup_s.push_back(SecondsSince(t0));
  }

  std::unique_ptr<Shadow> shadow;
  std::vector<std::unique_ptr<bagc::ServerSession>> sessions;
  std::vector<SpanBuffer> spans(kClients + 1);  // clients, sampler
  if (config.trace) {
    bagc::CollectionRegistry::Options options;
    options.mem_budget_bytes = kMemBudgetMb << 20;
    shadow = std::make_unique<Shadow>(options);
    for (size_t k = 0; k < num_tenants; ++k) {
      ShadowLoad(shadow.get(), TenantName(k), tenants[k].segment_path);
    }
    for (size_t c = 0; c < kClients; ++c) {
      sessions.push_back(ShadowSession(shadow.get(), BinaryClient(c)));
    }
  }

  std::vector<bagc::BagcdClient> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.push_back(daemon->Connect());
    if (BinaryClient(c)) Check(clients.back().UpgradeBinary(), "UPGRADE BINARY");
  }

  const Phases phases = MakePhases(config);
  SliceTallies tallies(phases.slices, kClients);
  std::vector<Samples> middle_edges(kClients);
  std::atomic<uint64_t> spurious_empty{0};
  RunThreads(kClients + 1, [&](size_t c) {
    if (c == kClients) {
      if (config.trace) {
        SampleHandoff(&shadow->pool, [&phases] {
          int s = phases.Slice(Clock::now());
          return phases.Over(s) ? kStop : phases.Traced(s) ? kSample : kWait;
        }, &spans[kClients]);
      }
      return;
    }
    bagc::BagcdClient& client = clients[c];
    const bool binary = BinaryClient(c);
    bagc::Rng rng(config.seed * 7919 + c);
    ClientTally warmup;
    std::string out;
    uint64_t request = uint64_t(c) << 48;
    while (true) {
      const int slice = phases.Slice(Clock::now());
      if (phases.Over(slice)) break;
      ClientTally& tally = slice < 0 ? warmup : tallies.At(slice, c);
      const bool traced = phases.Traced(slice);
      SpanBuffer& trace = spans[c];
      const size_t pick = std::min<size_t>(
          std::lower_bound(cdf[c].begin(), cdf[c].end(), Uniform(&rng)) - cdf[c].begin(),
          owned[c].size() - 1);
      const Dataset& d = tenants[owned[c][pick]];
      const std::string name = TenantName(owned[c][pick]);
      std::shared_ptr<bagc::CollectionRegistry::Collection> shadow_tenant =
          traced ? shadow->registry.Find(name) : nullptr;

      ++tally.attempted;
      uint64_t t0 = NowNs();
      bagc::Result<std::vector<std::string>> attached = client.Command("ATTACH " + name);
      uint64_t t1 = NowNs();
      if (attached.ok()) ++tally.completed;
      if (!IsOk(attached)) {
        tally.RecordError(attached.ok() ? bagc::Status::Internal(attached->front())
                                        : attached.status());
        continue;
      }
      if (traced) {
        uint32_t root = trace.Add(kAttachRoundTrip, 0, ++request, t0, t1);
        out.clear();
        uint64_t s0 = NowNs();
        sessions[c]->HandleData(CommandBytes("ATTACH " + name, binary), &out);
        uint64_t s1 = NowNs();
        trace.Add(kSessionAttach, root, request, s0, s1);
      }

      for (size_t q = 0; q < kReadsPerVisit; ++q) {
        auto [i, j] = RandomPair(&rng, m);
        ++tally.attempted;
        t0 = NowNs();
        bagc::Result<bool> verdict = client.TwoBag(i, j);
        t1 = NowNs();
        if (!verdict.ok()) {
          tally.RecordError(verdict.status());
          continue;
        }
        ++tally.completed;
        tally.read_us.Add(double(t1 - t0) / 1e3);
        if (*verdict != bool(d.consistent[i][j])) {
          tally.RecordWrong(name + " TWOBAG " + std::to_string(i) + " " + std::to_string(j));
        }
        if (!traced) continue;
        uint32_t root = trace.Add(kReadRoundTrip, 0, ++request, t0, t1);
        bagc::Result<std::shared_ptr<const bagc::EngineSnapshot>> snapshot =
            AcquireTraced(shadow.get(), shadow_tenant.get(), d, request, &trace,
                          &spurious_empty);
        ReplayTwoBag(sessions[c].get(), snapshot.ok() ? snapshot->get() : nullptr, i, j,
                     binary, root, request, &trace);
      }

      const size_t wi = rng.Below(m - 1);
      const size_t wj = wi + 1;
      ++tally.attempted;
      t0 = NowNs();
      bagc::Result<std::optional<std::vector<std::string>>> witness =
          client.Witness(wi, wj, false);
      t1 = NowNs();
      if (!witness.ok()) {
        tally.RecordError(witness.status());
        continue;
      }
      ++tally.completed;
      tally.witness_us.Add(double(t1 - t0) / 1e3);
      if (!witness->has_value() || !WitnessMarginalizes(d, wi, wj, **witness)) {
        tally.RecordWrong(name + " WITNESS " + std::to_string(wi) + " " + std::to_string(wj));
      }
      if (!traced) continue;
      uint32_t root = trace.Add(kWitnessRoundTrip, 0, ++request, t0, t1);
      bagc::Result<std::shared_ptr<const bagc::EngineSnapshot>> acquired =
          AcquireTraced(shadow.get(), shadow_tenant.get(), d, request, &trace,
                        &spurious_empty);
      out.clear();
      uint64_t s0 = NowNs();
      sessions[c]->HandleData(WitnessBytes(wi, wj, binary), &out);
      uint64_t s1 = NowNs();
      uint32_t session = trace.Add(kSessionWitness, root, request, s0, s1);
      if (!acquired.ok() || *acquired == nullptr) continue;  // no engine child
      const std::shared_ptr<const bagc::EngineSnapshot>& snapshot = *acquired;
      uint64_t e0 = NowNs();
      bagc::Result<std::optional<bagc::Bag>> bag = snapshot->Witness(wi, wj, false);
      uint64_t e1 = NowNs();
      Check(bag.status(), "in-process WITNESS");
      uint32_t engine = trace.Add(kSnapshotWitness, session, request, e0, e1);
      const bagc::BagCollection& bags = snapshot->engine()->collection();
      uint64_t n0 = NowNs();
      bagc::Result<bagc::ConsistencyNetwork> network =
          bagc::ConsistencyNetwork::Make(bags.bag(wi), bags.bag(wj));
      uint64_t n1 = NowNs();
      Check(network.status(), "ConsistencyNetwork::Make");
      trace.Add(kNetworkBuild, engine, request, n0, n1);
      middle_edges[c].Add(double(network->NumMiddleEdges()));
      uint64_t f0 = NowNs();
      bagc::Result<bool> saturated = network->HasSaturatedFlow();
      uint64_t f1 = NowNs();
      Check(saturated.status(), "HasSaturatedFlow");
      trace.Add(kMaxFlow, engine, request, f0, f1);
      uint64_t x0 = NowNs();
      bagc::Result<bagc::Bag> extracted = network->ExtractWitness();
      uint64_t x1 = NowNs();
      Check(extracted.status(), "ExtractWitness");
      trace.Add(kExtract, engine, request, x0, x1);
    }
  });

  const double rss_mb = daemon->PeakRssMb();
  bagc::BagcdClient admin = daemon->Connect();
  std::map<std::string, uint64_t> stats = Stats(&admin);
  uint64_t hits = 0, reloads = 0;
  for (size_t k = 0; k < num_tenants; ++k) {
    std::map<std::string, uint64_t> tenant = Stats(&admin, TenantName(k));
    hits += tenant["hits"];
    reloads += tenant["reloads"];
  }
  daemon.reset();

  const ClientTally untraced = tallies.Untraced();
  const ClientTally traced = tallies.Traced();
  AddCommonEndToEnd(tallies, phases.SliceSeconds(), setup_s, rss_mb, &result);
  LayerCounters counters;
  SetRegistryCounters(hits, reloads, stats["evictions"],
                      untraced.completed + traced.completed, &counters);
  std::vector<Metric>& e2e = result.end_to_end;
  e2e.push_back({"witness_p50_us", untraced.witness_us.Percentile(0.5), "us", untraced.witness_us.size()});
  e2e.push_back({"witness_p99_us", untraced.witness_us.Percentile(0.99), "us", untraced.witness_us.size()});
  e2e.push_back({"registry_hit_ratio", counters.hit_ratio, "ratio", hits + reloads});
  e2e.push_back({"evictions_per_kreq", counters.evictions_per_kreq, "1/kreq", 0});
  e2e.push_back({"errors.no_sealed_engine", double(untraced.no_engine + traced.no_engine), "count", 0});
  AddTally(untraced, &result);
  AddTally(traced, &result);
  if (config.trace) {
    counters.spurious_empty = spurious_empty.load();
    for (const Samples& s : middle_edges) counters.middle_edges.Merge(s);
    FinishTrace(config, spans, counters, untraced, traced, &result);
  }
  return result;
}

}  // namespace perfbench
