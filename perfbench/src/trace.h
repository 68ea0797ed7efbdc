// Spans for the traced run. Each client thread owns a SpanBuffer and
// records, from the benchmark's own code, the public entry point of
// every layer a request crosses: name, start, end, parent span, and the
// request id. Spans stay in memory and are written out once the run
// ends; per-layer self times are derived from them.
//
// A root span is the socket round trip to the real daemon. Its children
// are the same request replayed through an in-process stack built like
// the daemon's (CollectionRegistry + ThreadPool + ServerSession), and
// their children the layer calls below that. Because a child replays
// the request instead of running inside its parent, the child's interval
// lies beside the parent's: self time is the parent's duration minus the
// summed durations of its children, not minus an interval overlap.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

enum SpanName : uint32_t {
  // Roots: socket round trips, by request type.
  kReadRoundTrip,     // TWOBAG
  kCommitRoundTrip,   // BEGIN .. OK COMMIT
  kGlobalRoundTrip,   // GLOBAL
  kWitnessRoundTrip,  // WITNESS
  kAttachRoundTrip,   // ATTACH
  // server.session: ServerSession::HandleData of the same bytes.
  kSessionText,       // TWOBAG, text framing
  kSessionBinary,     // TWOBAG, binary framing
  kSessionWitness,
  kSessionGlobal,
  kSessionAttach,
  // server.registry
  kAcquireHit,        // CollectionRegistry::Acquire, tenant resident
  kAcquireReload,     // CollectionRegistry::Acquire, tenant evicted
  kPublishDelta,      // CollectionRegistry::PublishDelta
  // server.snapshot
  kSnapshotTwoBag,    // EngineSnapshot::TwoBag
  kSnapshotWitness,   // EngineSnapshot::Witness
  kBuildDelta,        // EngineSnapshot::BuildDeltaBatch
  // engine / tuple
  kEngineSeal,        // ConsistencyEngine::Make
  kSegmentMap,        // SegmentReader::Map
  kWalAppend,         // WalWriter::Append
  // solver
  kLpBuild,           // BuildConsistencyLp
  kIntSearch,         // SolveIntegerFeasibility
  // flow
  kNetworkBuild,      // ConsistencyNetwork::Make
  kMaxFlow,           // ConsistencyNetwork::HasSaturatedFlow
  kExtract,           // ConsistencyNetwork::ExtractWitness
  // util
  kPoolHandoff,       // ThreadPool::Submit to task start
  kNumSpanNames,
};

const char* SpanNameString(uint32_t name);

struct Span {
  uint32_t name = 0;
  uint32_t parent = 0;  // 1-based index in the same buffer; 0 = root
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// One thread's spans. Not thread-safe; one per thread.
class SpanBuffer {
 public:
  /// Records a measured interval; returns its id for use as a parent.
  uint32_t Add(uint32_t name, uint32_t parent, uint64_t request,
               uint64_t start_ns, uint64_t end_ns) {
    spans_.push_back(Span{name, parent, request, start_ns, end_ns});
    return static_cast<uint32_t>(spans_.size());
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per-name durations and self times (ns) over every buffer.
struct LayerTimes {
  std::vector<Samples> duration_ns;
  std::vector<Samples> self_ns;
};

LayerTimes DeriveLayerTimes(const std::vector<const SpanBuffer*>& buffers);

/// Per-layer values that are counts or ratios rather than span timings.
struct LayerCounters {
  double hit_ratio = 0;           // STATS <name>: hits / (hits + reloads)
  double evictions_per_kreq = 0;  // STATS evictions per 1000 requests
  uint64_t spurious_empty = 0;    // Acquire -> empty snapshot, sealed tenant
  Samples dirty_pairs;            // DeltaOutcome, per commit
  Samples marginal_fills;         // marginal_fills() of each delta generation
  Samples lp_vars, lp_rows;       // P(R1..Rm) size per post-commit generation
  Samples middle_edges;           // flow network size per WITNESS
  double wal_bytes_per_commit = 0;
  double replay_read_us = 0;      // ReadWalFile of the run's log
  double replay_fold_us = 0;      // BuildDeltaBatch over every logged record
  double read_p50_untraced_us = 0;
  double read_p50_traced_us = 0;
};

/// Every per-layer metric, in BENCHMARK.json order; layers a workload
/// does not cross report 0 with 0 samples.
std::vector<Metric> PerLayerMetrics(const LayerTimes& times,
                                    const LayerCounters& counters);

/// Writes every span as TSV (id, parent, request, name, start_ns,
/// end_ns; ids unique across buffers). Throws BenchError on I/O failure.
void WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers);

}  // namespace perfbench
