// hot_reads: one sealed acyclic 8-bag path collection (--preload-seg),
// four closed-loop clients sending random-pair TWOBAG, two in the text
// framing and two in the binary framing. The engine answer is a cached
// lookup, so transport, session decode/encode and the pool handoff make
// up almost the whole request.
#include <memory>

#include "daemon.h"
#include "harness.h"
#include "hypergraph/families.h"
#include "inputs.h"
#include "shadow.h"

namespace perfbench {
namespace {

constexpr size_t kClients = 4;
constexpr size_t kPathVertices = 9;  // 8 bags

bool BinaryClient(size_t c) { return c >= kClients / 2; }

}  // namespace

RunResult RunHotReads(const RunConfig& config) {
  const size_t rows = config.smoke ? 256 : 1024;
  bagc::Result<bagc::Hypergraph> path = bagc::MakePath(kPathVertices);
  Check(path.status(), "path hypergraph");
  const Dataset d = MakeDataset(*path, rows, rows, config.seed,
                                config.work_dir + "/hot_reads.seg");
  const size_t m = d.num_bags();

  RunResult result;
  result.daemon_flags = {"--threads", std::to_string(kDaemonThreads),
                         "--preload-seg", d.segment_path};

  // Set-up: spawn -> segment preloaded and sealed -> first answer.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < SetupReps(config); ++rep) {
    daemon.reset();
    Clock::time_point t0 = Clock::now();
    daemon = Daemon::Start(config.bagcd, result.daemon_flags, config.work_dir);
    bagc::BagcdClient probe = daemon->Connect();
    bagc::Result<bool> first = probe.TwoBag(0, 1);
    if (!first.ok() || *first != bool(d.consistent[0][1])) Fail("first TWOBAG answer");
    setup_s.push_back(SecondsSince(t0));
  }

  // Traced runs replay every request through the in-process twin.
  std::unique_ptr<Shadow> shadow;
  std::vector<std::unique_ptr<bagc::ServerSession>> sessions;
  std::vector<SpanBuffer> spans(kClients + 2);  // clients, sampler, setup
  if (config.trace) {
    shadow = std::make_unique<Shadow>(bagc::CollectionRegistry::Options());
    TimeReloadLayers(d.segment_path, d.Collection(), &spans[kClients + 1], 0, 0);
    ShadowLoad(shadow.get(), bagc::kDefaultCollectionName, d.segment_path);
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
    for (uint64_t request = uint64_t(c) << 48;; ++request) {
      const int slice = phases.Slice(Clock::now());
      if (phases.Over(slice)) break;
      ClientTally& tally = slice < 0 ? warmup : tallies.At(slice, c);
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
      if (*verdict != bool(d.consistent[i][j])) {
        tally.RecordWrong("TWOBAG " + std::to_string(i) + " " + std::to_string(j));
      }
      if (!phases.Traced(slice)) continue;
      uint32_t root = spans[c].Add(kReadRoundTrip, 0, request, t0, t1);
      ReplayTwoBag(sessions[c].get(),
                   shadow->registry.Peek(shadow->registry.Default().get()).get(), i, j,
                   binary, root, request, &spans[c]);
    }
  });

  const double rss_mb = daemon->PeakRssMb();
  bagc::BagcdClient admin = daemon->Connect();
  std::map<std::string, uint64_t> stats = Stats(&admin);
  std::map<std::string, uint64_t> tenant = Stats(&admin, bagc::kDefaultCollectionName);
  daemon.reset();

  const ClientTally untraced = tallies.Untraced();
  const ClientTally traced = tallies.Traced();
  AddCommonEndToEnd(tallies, phases.SliceSeconds(), setup_s, rss_mb, &result);
  AddTally(untraced, &result);
  AddTally(traced, &result);
  if (config.trace) {
    LayerCounters counters;
    SetRegistryCounters(tenant["hits"], tenant["reloads"], stats["evictions"],
                        untraced.completed + traced.completed, &counters);
    FinishTrace(config, spans, counters, untraced, traced, &result);
  }
  return result;
}

}  // namespace perfbench
