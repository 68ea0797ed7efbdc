// bagc_e2e: drives a real bagcd child process over loopback with one of
// three closed-loop workloads and prints its metrics as JSON.
//
// Usage (normally through perfbench/run.py, which builds the binaries):
//   bagc_e2e --workload hot_reads|write_global|tenant_churn --seed N
//            --seconds S --trace 0|1 --bagcd PATH --work-dir DIR
//            [--spans PATH] [--smoke]
//
// Output, one JSON object per line: provenance (host, compiler, flags,
// SIMD level, WAL filesystem, daemon flags), then the run's detail
// (every metric with its sample count, first failures, span file), then
// the result line: {"correct", "attempted", "failed", "metrics"} with
// the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit code 0 once a result is printed; 1 on a harness
// failure, with the reason on stderr and no result line.
#include <sys/stat.h>
#include <sys/vfs.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>

#include "common.h"
#include "util/simd.h"

#ifndef PERFBENCH_COMPILE_FLAGS
#define PERFBENCH_COMPILE_FLAGS "(unknown)"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "(unknown)"
#endif

namespace perfbench {
namespace {

// The metrics BENCHMARK.json declares end to end: every workload reports
// them and each holds steady from run to run. The rest appear on the
// detail line: the workload-specific ones (commit, GLOBAL and WITNESS
// latencies, recovery, error rate) and the read tail, which no single
// percentile keeps steady on every workload (on write_global about 1% of
// reads queue behind a GLOBAL on the pool, so p99 sits on that knee; on
// hot_reads p99.9 is scheduler noise).
const std::set<std::string> kDeclaredEndToEnd = {"throughput_rps", "read_p50_us",
                                                 "setup_s", "server_rss_mb"};

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    unsigned char u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", u);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs;
  if (path.empty() || ::statfs(path.c_str(), &fs) != 0) return "";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::string MetricList(const std::vector<Metric>& metrics) {
  std::string out = "[";
  for (size_t k = 0; k < metrics.size(); ++k) {
    const Metric& m = metrics[k];
    out += (k ? ", " : "") + std::string("{\"name\": ") + Quote(m.name) +
           ", \"value\": " + Number(m.value) + ", \"unit\": " + Quote(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  return out + "]";
}

void PrintResult(const RunConfig& config, const RunResult& r) {
  std::string flags = "[";
  for (size_t k = 0; k < r.daemon_flags.size(); ++k) {
    flags += (k ? ", " : "") + Quote(r.daemon_flags[k]);
  }
  flags += "]";
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"smoke\": %s, \"host_nproc\": %u, \"compiler\": %s, "
      "\"compile_flags\": %s, \"simd_level\": %s, \"wal_filesystem\": %s, "
      "\"daemon_flags\": %s}}\n",
      Quote(config.workload).c_str(), static_cast<unsigned long long>(config.seed),
      Number(config.seconds).c_str(), config.trace ? 1 : 0,
      config.smoke ? "true" : "false", std::thread::hardware_concurrency(),
      Quote(std::string(PERFBENCH_COMPILER) + " (" + __VERSION__ + ")").c_str(),
      Quote(PERFBENCH_COMPILE_FLAGS).c_str(),
      Quote(bagc::simd::SimdLevelName(bagc::simd::ActiveSimdLevel())).c_str(),
      Quote(r.wal_dir.empty() ? "none" : FilesystemOf(r.wal_dir)).c_str(),
      flags.c_str());

  std::string failures = "[";
  for (size_t k = 0; k < r.failures.size(); ++k) {
    failures += (k ? ", " : "") + Quote(r.failures[k]);
  }
  failures += "]";
  std::printf("{\"detail\": {\"end_to_end\": %s, \"per_layer\": %s, "
              "\"failures\": %s, \"spans\": %s}}\n",
              MetricList(r.end_to_end).c_str(), MetricList(r.per_layer).c_str(),
              failures.c_str(), Quote(r.trace_file).c_str());

  std::string metrics;
  auto add = [&](const Metric& m) {
    metrics += (metrics.empty() ? "" : ", ") + Quote(m.name) + ": {\"value\": " +
               Number(m.value) + ", \"unit\": " + Quote(m.unit) + "}";
  };
  if (config.trace) {
    for (const Metric& m : r.per_layer) add(m);
  } else {
    for (const Metric& m : r.end_to_end) {
      if (kDeclaredEndToEnd.count(m.name)) add(m);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.wrong == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: bagc_e2e --workload hot_reads|write_global|tenant_churn "
               "--seed N --seconds S --trace 0|1 --bagcd PATH --work-dir DIR "
               "[--spans PATH (with --trace 1)] [--smoke]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--bagcd") {
      config.bagcd = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else {
      return Usage();
    }
  }
  if (config.bagcd.empty() || config.work_dir.empty() || !(config.seconds > 0) ||
      (config.trace && config.spans_path.empty())) {
    return Usage();
  }
  try {
    RunResult result;
    if (config.workload == "hot_reads") {
      result = RunHotReads(config);
    } else if (config.workload == "write_global") {
      result = RunWriteGlobal(config);
    } else if (config.workload == "tenant_churn") {
      result = RunTenantChurn(config);
    } else {
      return Usage();
    }
    PrintResult(config, result);
  } catch (const BenchError& e) {
    std::fprintf(stderr, "bagc_e2e: %s\n", e.what());
    return 1;
  }
  return 0;
}
