// Shared vocabulary of the bagcd end-to-end benchmark: run configuration,
// latency samples, per-client tallies, and the result every workload
// hands back to main.cc for printing.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A setup or harness failure: the run cannot produce a result. Thrown,
/// so every Daemon on the stack is killed and reaped on the way out.
class BenchError : public std::runtime_error {
 public:
  explicit BenchError(const std::string& what) : std::runtime_error(what) {}
};

[[noreturn]] inline void Fail(const std::string& what) { throw BenchError(what); }

inline void Check(const bagc::Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Small inputs and short phases: every workload end to end in seconds.
  bool smoke = false;
  std::string bagcd;     // daemon binary
  std::string work_dir;  // segments, WAL directories, daemon logs
  std::string spans_path;  // traced runs write their spans here
};

/// Latency (or any) samples; percentiles by nearest rank.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  /// q in (0, 1]; 0 when empty.
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }
  double Mean() const;

 private:
  std::vector<double> values_;
};

/// One client thread's view of a phase: latencies by request type, and
/// the error accounting. Merged across clients after the phase.
struct ClientTally {
  Samples read_us, commit_us, global_us, witness_us;
  uint64_t attempted = 0;  // round trips sent
  uint64_t completed = 0;  // round trips answered (OK or ERR)
  uint64_t errors = 0;     // ERR responses and transport failures
  uint64_t wrong = 0;      // answers that disagree with the oracle
  uint64_t no_engine = 0;  // ERR E_STATE "no sealed engine" (eviction race)
  uint64_t node_limit = 0; // ERR "search node limit exceeded" (cyclic GLOBAL)
  std::vector<std::string> first_failures;

  void Merge(const ClientTally& other);
  /// Counts a failed round trip, classifying the two known seed failure
  /// modes by message.
  void RecordError(const bagc::Status& status);
  void RecordWrong(const std::string& what);
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // 0 for counters and derived values
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // ERR responses + wrong answers + durability mismatches
  uint64_t wrong = 0;   // wrong answers + durability mismatches alone
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> daemon_flags;
  std::string wal_dir;  // empty when the workload runs no WAL
  std::vector<std::string> failures;  // first few failure messages
  std::string trace_file;             // spans written by a traced run
};

RunResult RunHotReads(const RunConfig& config);
RunResult RunWriteGlobal(const RunConfig& config);
RunResult RunTenantChurn(const RunConfig& config);

}  // namespace perfbench
