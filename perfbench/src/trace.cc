#include "trace.h"

#include <cstdio>

namespace perfbench {

const char* SpanNameString(uint32_t name) {
  static const char* const kNames[kNumSpanNames] = {
      "client.twobag",
      "client.commit",
      "client.global",
      "client.witness",
      "client.attach",
      "server.session.twobag_text",
      "server.session.twobag_binary",
      "server.session.witness",
      "server.session.global",
      "server.session.attach",
      "server.registry.acquire_hit",
      "server.registry.acquire_reload",
      "server.registry.publish_delta",
      "server.snapshot.twobag",
      "server.snapshot.witness",
      "server.snapshot.build_delta",
      "engine.seal",
      "tuple.segment.map",
      "tuple.wal.append",
      "solver.lp_build",
      "solver.int_search",
      "flow.network_build",
      "flow.maxflow",
      "flow.extract",
      "util.thread_pool.handoff",
  };
  return name < kNumSpanNames ? kNames[name] : "unknown";
}

LayerTimes DeriveLayerTimes(const std::vector<const SpanBuffer*>& buffers) {
  LayerTimes out;
  out.duration_ns.resize(kNumSpanNames);
  out.self_ns.resize(kNumSpanNames);
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    // Children always follow their parent in a buffer, so one pass sums
    // child durations per parent and a second computes self times.
    std::vector<double> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent != 0) child_ns[s.parent - 1] += double(s.end_ns - s.start_ns);
    }
    for (size_t k = 0; k < spans.size(); ++k) {
      const Span& s = spans[k];
      double duration = double(s.end_ns - s.start_ns);
      out.duration_ns[s.name].Add(duration);
      out.self_ns[s.name].Add(duration - child_ns[k]);
    }
  }
  return out;
}

std::vector<Metric> PerLayerMetrics(const LayerTimes& times,
                                    const LayerCounters& counters) {
  std::vector<Metric> out;
  auto timing = [&](const std::string& name, const Samples& ns, double q,
                    bool in_ns = false) {
    out.push_back(Metric{name, ns.Percentile(q) / (in_ns ? 1.0 : 1000.0),
                         in_ns ? "ns" : "us", ns.size()});
  };
  auto mean = [&](const std::string& name, const Samples& s, const char* unit) {
    out.push_back(Metric{name, s.Mean(), unit, s.size()});
  };
  auto value = [&](const std::string& name, double v, const char* unit) {
    out.push_back(Metric{name, v, unit, 0});
  };
  const std::vector<Samples>& dur = times.duration_ns;
  const std::vector<Samples>& self = times.self_ns;
  Samples acquire = dur[kAcquireHit];
  acquire.Merge(dur[kAcquireReload]);

  timing("server.transport.self_us.p50", self[kReadRoundTrip], 0.5);
  timing("server.transport.self_us.p99", self[kReadRoundTrip], 0.99);
  timing("server.session.text_self_us.p50", self[kSessionText], 0.5);
  timing("server.session.binary_self_us.p50", self[kSessionBinary], 0.5);
  timing("util.thread_pool.handoff_us.p50", dur[kPoolHandoff], 0.5);
  timing("util.thread_pool.handoff_us.p99", dur[kPoolHandoff], 0.99);
  timing("server.snapshot.twobag_ns.p50", dur[kSnapshotTwoBag], 0.5, true);
  timing("server.registry.acquire_us.p50", acquire, 0.5);
  timing("server.registry.acquire_us.p99", acquire, 0.99);
  timing("server.registry.reload_us.p50", dur[kAcquireReload], 0.5);
  value("server.registry.hit_ratio", counters.hit_ratio, "ratio");
  value("server.registry.evictions_per_kreq", counters.evictions_per_kreq, "1/kreq");
  value("server.registry.spurious_empty", double(counters.spurious_empty), "count");
  timing("server.registry.publish_delta_us.p50", dur[kPublishDelta], 0.5);
  timing("server.registry.publish_delta_us.p99", dur[kPublishDelta], 0.99);
  timing("server.snapshot.build_delta_us.p50", dur[kBuildDelta], 0.5);
  mean("engine.dirty_pairs_per_commit", counters.dirty_pairs, "count");
  mean("engine.marginal_fills_per_commit", counters.marginal_fills, "count");
  timing("engine.seal_us.p50", dur[kEngineSeal], 0.5);
  timing("tuple.segment.map_us.p50", dur[kSegmentMap], 0.5);
  timing("solver.lp_build_us.p50", dur[kLpBuild], 0.5);
  timing("solver.int_search_us.p50", dur[kIntSearch], 0.5);
  timing("solver.int_search_us.p99", dur[kIntSearch], 0.99);
  mean("solver.lp_vars", counters.lp_vars, "count");
  mean("solver.lp_rows", counters.lp_rows, "count");
  timing("flow.network_build_us.p50", dur[kNetworkBuild], 0.5);
  timing("flow.maxflow_us.p50", dur[kMaxFlow], 0.5);
  timing("flow.extract_us.p50", dur[kExtract], 0.5);
  mean("flow.middle_edges", counters.middle_edges, "count");
  timing("server.session.witness_encode_us.p50", self[kSessionWitness], 0.5);
  timing("tuple.wal.append_us.p50", dur[kWalAppend], 0.5);
  timing("tuple.wal.append_us.p99", dur[kWalAppend], 0.99);
  value("tuple.wal.bytes_per_commit", counters.wal_bytes_per_commit, "bytes");
  value("tuple.wal.replay_read_us", counters.replay_read_us, "us");
  value("tuple.wal.replay_fold_us", counters.replay_fold_us, "us");
  value("trace.read_p50_us.untraced", counters.read_p50_untraced_us, "us");
  value("trace.read_p50_us.traced", counters.read_p50_traced_us, "us");
  value("trace.overhead.read_p50_us",
        counters.read_p50_traced_us - counters.read_p50_untraced_us, "us");
  return out;
}

void WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Fail("cannot write spans to " + path);
  std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
  uint64_t base = 0;
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    for (size_t k = 0; k < spans.size(); ++k) {
      const Span& s = spans[k];
      std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%llu\t%llu\n",
                   static_cast<unsigned long long>(base + k + 1),
                   static_cast<unsigned long long>(s.parent == 0 ? 0 : base + s.parent),
                   static_cast<unsigned long long>(s.request),
                   SpanNameString(s.name),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
    base += spans.size();
  }
  if (std::fclose(f) != 0) Fail("cannot write spans to " + path);
}

}  // namespace perfbench
