// Helpers the three workloads share: measurement phases, client
// threads, STATS parsing, and the end-to-end metric block.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "server/client.h"
#include "trace.h"
#include "util/random.h"

namespace perfbench {

/// Seconds per measurement slice. End-to-end figures are medians of
/// per-slice values, so a burst of interference from outside the
/// benchmark moves one slice, not the run's result.
inline constexpr double kSliceSeconds = 1;

/// Slices of a run whose untraced phase spans `seconds`.
size_t NumSlices(double seconds);

/// Timed phases of a closed-loop run. Requests before `start` warm up
/// and are not recorded; [start, mid) is the untraced phase, cut into
/// `slices` equal slices, and [mid, end) the traced one (mid == end
/// without --trace 1).
struct Phases {
  Clock::time_point start, mid, end;
  size_t slices = 1;

  /// -1 warm-up, 0..slices-1 an untraced slice, `slices` traced,
  /// slices + 1 over.
  int Slice(Clock::time_point now) const;
  bool Over(int slice) const { return slice > int(slices); }
  bool Traced(int slice) const { return slice == int(slices); }
  /// Duration of each untraced slice.
  std::vector<double> SliceSeconds() const;
};

Phases MakePhases(const RunConfig& config);

/// Per-client tallies by slice: untraced slices 0..n-1, then one traced
/// slice.
class SliceTallies {
 public:
  SliceTallies(size_t untraced_slices, size_t clients)
      : slices_(untraced_slices), clients_(clients),
        tallies_((untraced_slices + 1) * clients) {}

  ClientTally& At(size_t slice, size_t client) { return tallies_[slice * clients_ + client]; }
  size_t untraced_slices() const { return slices_; }
  /// One slice merged over clients.
  ClientTally Slice(size_t slice) const;
  ClientTally Untraced() const;
  ClientTally Traced() const { return Slice(slices_); }

 private:
  size_t slices_, clients_;
  std::vector<ClientTally> tallies_;
};

/// Daemon start-ups per run; setup_s reports their median.
int SetupReps(const RunConfig& config);

/// Runs fn(0..n-1) on n threads and joins them; a BenchError thrown by
/// any thread is rethrown here after every thread has joined.
void RunThreads(size_t n, const std::function<void(size_t)>& fn);

/// A uniformly random ordered pair i != j below m.
std::pair<size_t, size_t> RandomPair(bagc::Rng* rng, size_t m);

/// Uniform double in [0, 1).
double Uniform(bagc::Rng* rng);

/// True for an "OK ..." first response line.
bool IsOk(const bagc::Result<std::vector<std::string>>& response);

/// STATS [name] as key -> value; throws BenchError on failure.
std::map<std::string, uint64_t> Stats(bagc::BagcdClient* client,
                                      const std::string& name = "");

/// LOADSEG + SEAL of `segment` over `client`'s bound collection; throws
/// BenchError on any ERR.
void LoadAndSeal(bagc::BagcdClient* client, const std::string& segment);

/// The end-to-end metrics every workload reports. Throughput and read
/// percentiles are medians over the untraced slices (of durations
/// `slice_seconds`); setup_s is the median of the run's start-ups.
void AddCommonEndToEnd(const SliceTallies& tallies,
                       const std::vector<double>& slice_seconds,
                       const std::vector<double>& setup_s, double rss_mb,
                       RunResult* result);

/// server.registry.hit_ratio (hits / (hits + reloads)) and
/// evictions_per_kreq from the daemon's STATS counts.
void SetRegistryCounters(uint64_t hits, uint64_t reloads, uint64_t evictions,
                         uint64_t requests, LayerCounters* counters);

/// Folds a tally's counts and first failures into the run result.
void AddTally(const ClientTally& tally, RunResult* result);

/// Span output path and per-layer metrics for a traced run.
void FinishTrace(const RunConfig& config, const std::vector<SpanBuffer>& buffers,
                 LayerCounters counters, const ClientTally& untraced,
                 const ClientTally& traced, RunResult* result);

}  // namespace perfbench
