// bagcd: the long-lived bag-consistency daemon. Binds a TCP listener,
// serves the session protocol of docs/PROTOCOL.md (one ServerSession per
// connection, one shared engine snapshot per SEAL generation), and exits
// cleanly on SIGINT/SIGTERM or a SHUTDOWN command.
//
// Usage:
//   bagcd [--host ADDR] [--port N] [--threads N] [--port-file PATH]
//         [--preload-seg PATH] [--mem-budget-mb N] [--max-collections N]
//         [--max-collection-mb N]
//
//   --host ADDR        bind address (default 127.0.0.1)
//   --port N           TCP port; 0 picks an ephemeral port (default 0)
//   --threads N        workers for the search and witness queries (a cyclic
//                      GLOBAL's first solve, KWISE, WITNESS); 0 = inline
//                      (default 0). Lookups of verdicts decided at seal
//                      (TWOBAG, PAIRWISE, a known GLOBAL) always answer
//                      on the connection's thread
//   --port-file PATH   write the bound port to PATH once listening — the
//                      race-free way for a harness to find an ephemeral
//                      port (written atomically via rename)
//   --preload-seg PATH mmap the sealed-bag segment at PATH (see
//                      docs/SEGMENT.md), seal it, and publish it as the
//                      "default" collection's snapshot (its reload
//                      source) before accepting queries — a daemon that
//                      restarts warm without any client re-streaming rows
//   --mem-budget-mb N  global budget for resident sealed snapshots; the
//                      coldest collections are evicted past it and lazily
//                      reloaded from their segments on the next query
//                      (0 = unlimited, default)
//   --max-collections N  admission cap on named collections, counting
//                      "default" (0 = unlimited, default)
//   --max-collection-mb N  per-collection ceiling on one sealed
//                      snapshot's size; larger SEALs answer E_RANGE
//                      (0 = unlimited, default)
//   --wal-dir PATH     per-collection delta WAL directory (docs/WAL.md):
//                      every committed INSERT/DELETE/COMMIT on a
//                      segment-based collection appends one fdatasynced
//                      record, and on startup (with --preload-seg) the
//                      log is replayed over the base segment so
//                      committed generations survive a crash or restart
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include "server/bagcd_server.h"

namespace {

std::atomic<bool> g_signalled{false};

void OnSignal(int) { g_signalled.store(true); }

}  // namespace

int main(int argc, char** argv) {
  bagc::BagcdServerOptions options;
  std::string port_file;
  std::string preload_seg;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bagcd: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // Reject (never truncate or wrap) out-of-range numeric flags: a port
    // of 99999 silently binding 34463 sends every client elsewhere.
    auto next_number = [&](const char* flag, long min, long max) -> long {
      const char* text = next(flag);
      char* rest = nullptr;
      long value = std::strtol(text, &rest, 10);
      if (rest == text || *rest != '\0' || value < min || value > max) {
        std::fprintf(stderr, "bagcd: %s must be an integer in [%ld, %ld], got '%s'\n",
                     flag, min, max, text);
        std::exit(2);
      }
      return value;
    };
    if (std::strcmp(argv[i], "--host") == 0) {
      options.host = next("--host");
    } else if (std::strcmp(argv[i], "--port") == 0) {
      options.port = static_cast<uint16_t>(next_number("--port", 0, 65535));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      options.query_threads =
          static_cast<size_t>(next_number("--threads", 0, 1024));
    } else if (std::strcmp(argv[i], "--port-file") == 0) {
      port_file = next("--port-file");
    } else if (std::strcmp(argv[i], "--preload-seg") == 0) {
      preload_seg = next("--preload-seg");
    } else if (std::strcmp(argv[i], "--mem-budget-mb") == 0) {
      options.registry.mem_budget_bytes =
          static_cast<size_t>(next_number("--mem-budget-mb", 0, 1 << 20)) << 20;
    } else if (std::strcmp(argv[i], "--max-collections") == 0) {
      options.registry.max_collections =
          static_cast<size_t>(next_number("--max-collections", 0, 1 << 20));
    } else if (std::strcmp(argv[i], "--max-collection-mb") == 0) {
      options.registry.max_collection_bytes =
          static_cast<size_t>(next_number("--max-collection-mb", 0, 1 << 20))
          << 20;
    } else if (std::strcmp(argv[i], "--wal-dir") == 0) {
      options.registry.wal_dir = next("--wal-dir");
    } else {
      std::fprintf(stderr,
                   "usage: bagcd [--host ADDR] [--port N] [--threads N] "
                   "[--port-file PATH] [--preload-seg PATH] "
                   "[--mem-budget-mb N] [--max-collections N] "
                   "[--max-collection-mb N] "
                   "[--wal-dir PATH]\n");
      return 2;
    }
  }

  auto server = bagc::BagcdServer::Start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "bagcd: %s\n", server.status().ToString().c_str());
    return 1;
  }
  if (!preload_seg.empty()) {
    // The registry's reload restores the segment and folds its WAL, so a
    // restart serves exactly what a post-eviction reload would. The port
    // file is written after this, so harnesses that wait for it never
    // race a half-warm daemon. A WAL that cannot replay (fingerprint
    // mismatch, mid-file corruption) stops the daemon: serving the bare
    // base would silently roll back committed generations.
    bagc::CollectionRegistry& registry = (*server)->registry();
    auto replayed = registry.Restore(registry.Default().get(), preload_seg);
    if (!replayed.ok()) {
      std::fprintf(stderr, "bagcd: %s: %s\n",
                   options.registry.wal_dir.empty() ? "--preload-seg failed"
                                                    : "WAL recovery failed",
                   replayed.status().ToString().c_str());
      return 1;
    }
    std::printf("bagcd: preloaded %s\n", preload_seg.c_str());
    if (*replayed > 0) {
      std::printf("bagcd: replayed %llu WAL generation(s)\n",
                  static_cast<unsigned long long>(*replayed));
    }
  }
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  // Belt and braces on top of MSG_NOSIGNAL in the transport: no stray
  // write to a dead peer may ever take the daemon down.
  std::signal(SIGPIPE, SIG_IGN);
  std::printf("bagcd listening on %s:%u\n", options.host.c_str(),
              static_cast<unsigned>((*server)->port()));
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::string tmp = port_file + ".tmp";
    {
      std::ofstream out(tmp);
      out << (*server)->port() << "\n";
    }
    if (std::rename(tmp.c_str(), port_file.c_str()) != 0) {
      std::fprintf(stderr, "bagcd: cannot write port file %s\n", port_file.c_str());
      return 1;
    }
  }

  // Wait for a shutdown from either direction: a protocol SHUTDOWN flags
  // the server itself; a signal flags g_signalled (handlers can't touch
  // condition variables, so poll it at a human-invisible cadence).
  std::thread signal_watch([&] {
    while (!g_signalled.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    (*server)->RequestShutdown();
  });
  (*server)->Wait();
  g_signalled.store(true);  // let the watcher exit when SHUTDOWN won the race
  signal_watch.join();
  std::printf("bagcd: clean shutdown\n");
  return 0;
}
