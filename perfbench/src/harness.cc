#include "harness.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

namespace perfbench {

size_t NumSlices(double seconds) {
  return std::max<size_t>(1, size_t(std::llround(seconds / kSliceSeconds)));
}

int Phases::Slice(Clock::time_point now) const {
  if (now < start) return -1;
  if (now >= end) return int(slices) + 1;
  if (now >= mid) return int(slices);
  double into = std::chrono::duration<double>(now - start).count();
  double span = std::chrono::duration<double>(mid - start).count();
  return std::min(int(slices) - 1, int(into / span * double(slices)));
}

std::vector<double> Phases::SliceSeconds() const {
  double span = std::chrono::duration<double>(mid - start).count();
  return std::vector<double>(slices, span / double(slices));
}

Phases MakePhases(const RunConfig& config) {
  // Warm-up lets connections, page cache and the pool settle before any
  // sample counts.
  const double warmup_s = config.smoke ? 0.1 : 0.5;
  const double untraced_s = config.trace ? config.seconds / 2 : config.seconds;
  auto seconds = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  Phases p;
  p.start = Clock::now() + seconds(warmup_s);
  p.mid = p.start + seconds(untraced_s);
  p.end = p.start + seconds(config.seconds);
  p.slices = NumSlices(untraced_s);
  return p;
}

ClientTally SliceTallies::Slice(size_t slice) const {
  ClientTally out;
  for (size_t c = 0; c < clients_; ++c) out.Merge(tallies_[slice * clients_ + c]);
  return out;
}

ClientTally SliceTallies::Untraced() const {
  ClientTally out;
  for (size_t s = 0; s < slices_; ++s) out.Merge(Slice(s));
  return out;
}

int SetupReps(const RunConfig& config) {
  return config.smoke || config.trace ? 1 : 15;
}

void RunThreads(size_t n, const std::function<void(size_t)>& fn) {
  std::mutex mu;
  std::exception_ptr first;
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    threads.emplace_back([&, k] {
      try {
        fn(k);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!first) first = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (first) std::rethrow_exception(first);
}

std::pair<size_t, size_t> RandomPair(bagc::Rng* rng, size_t m) {
  size_t i = rng->Below(m);
  size_t j = rng->Below(m - 1);
  if (j >= i) ++j;
  return {i, j};
}

double Uniform(bagc::Rng* rng) {
  return double(rng->Next() >> 11) * (1.0 / 9007199254740992.0);
}

bool IsOk(const bagc::Result<std::vector<std::string>>& response) {
  return response.ok() && !response->empty() && response->front().rfind("OK", 0) == 0;
}

std::map<std::string, uint64_t> Stats(bagc::BagcdClient* client,
                                      const std::string& name) {
  bagc::Result<std::vector<std::string>> response =
      client->Command(name.empty() ? "STATS" : "STATS " + name);
  if (!IsOk(response)) {
    Fail("STATS " + name + ": " +
         (response.ok() ? response->front() : response.status().ToString()));
  }
  std::map<std::string, uint64_t> out;
  for (size_t k = 1; k < response->size(); ++k) {
    std::istringstream line((*response)[k]);
    std::string key;
    uint64_t value = 0;
    if (line >> key >> value) out[key] = value;
  }
  return out;
}

void LoadAndSeal(bagc::BagcdClient* client, const std::string& segment) {
  for (const std::string& command : {"LOADSEG " + segment, std::string("SEAL")}) {
    bagc::Result<std::vector<std::string>> response = client->Command(command);
    if (!IsOk(response)) {
      Fail(command + ": " +
           (response.ok() ? response->front() : response.status().ToString()));
    }
  }
}

void AddCommonEndToEnd(const SliceTallies& tallies,
                       const std::vector<double>& slice_seconds,
                       const std::vector<double>& setup_s, double rss_mb,
                       RunResult* result) {
  Samples setups, throughput, p50;
  for (double s : setup_s) setups.Add(s);
  for (size_t s = 0; s < tallies.untraced_slices(); ++s) {
    ClientTally slice = tallies.Slice(s);
    throughput.Add(double(slice.completed) / slice_seconds[s]);
    p50.Add(slice.read_us.Percentile(0.5));
  }
  // Tails pool every sample: a slice holds too few beyond p99.9.
  const ClientTally untraced = tallies.Untraced();
  std::vector<Metric>& m = result->end_to_end;
  m.push_back({"throughput_rps", throughput.Median(), "req/s", untraced.completed});
  m.push_back({"read_p50_us", p50.Median(), "us", untraced.read_us.size()});
  m.push_back({"read_p99_us", untraced.read_us.Percentile(0.99), "us", untraced.read_us.size()});
  m.push_back({"read_p999_us", untraced.read_us.Percentile(0.999), "us", untraced.read_us.size()});
  m.push_back({"error_rate",
               untraced.attempted == 0
                   ? 0.0
                   : double(untraced.errors + untraced.wrong) / double(untraced.attempted),
               "ratio", untraced.attempted});
  m.push_back({"setup_s", setups.Median(), "s", setups.size()});
  m.push_back({"server_rss_mb", rss_mb, "MB", 0});
}

void SetRegistryCounters(uint64_t hits, uint64_t reloads, uint64_t evictions,
                         uint64_t requests, LayerCounters* counters) {
  counters->hit_ratio = double(hits) / double(std::max<uint64_t>(1, hits + reloads));
  counters->evictions_per_kreq = double(evictions) * 1000.0 / double(std::max<uint64_t>(1, requests));
}

void AddTally(const ClientTally& tally, RunResult* result) {
  result->attempted += tally.attempted;
  result->failed += tally.errors + tally.wrong;
  result->wrong += tally.wrong;
  for (const std::string& f : tally.first_failures) {
    if (result->failures.size() < 8) result->failures.push_back(f);
  }
}

void FinishTrace(const RunConfig& config, const std::vector<SpanBuffer>& buffers,
                 LayerCounters counters, const ClientTally& untraced,
                 const ClientTally& traced, RunResult* result) {
  std::vector<const SpanBuffer*> views;
  for (const SpanBuffer& b : buffers) views.push_back(&b);
  result->trace_file = config.spans_path;
  WriteSpans(result->trace_file, views);
  counters.read_p50_untraced_us = untraced.read_us.Median();
  counters.read_p50_traced_us = traced.read_us.Median();
  result->per_layer = PerLayerMetrics(DeriveLayerTimes(views), counters);
}

}  // namespace perfbench
