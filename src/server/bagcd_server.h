// The bagcd daemon's transport: a TCP listener (loopback by default)
// that speaks the line protocol of session.h. One OS thread per
// connection feeds that client's ServerSession. That thread answers the
// lookups of verdicts decided at seal itself (TWOBAG by Lemma 2(2),
// PAIRWISE, GLOBAL by Theorem 2 or once solved); only search and witness
// work (a cyclic GLOBAL's first solve, KWISE, WITNESS) is handed to one
// shared FIFO ThreadPool (util/thread_pool.h). All sessions
// share one CollectionRegistry: every named collection
// serves from its own sealed engine generation, with cold tenants
// evicted (and lazily reloaded from segments) under the configured
// memory budget. Shutdown — from
// Shutdown(), a SHUTDOWN command, or a signal via RequestShutdown() —
// stops the accept loop, unblocks every connection, and joins all
// threads before Start()'s Wait() returns.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/collection_registry.h"
#include "server/engine_snapshot.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace bagc {

/// Listener configuration for a bagcd server.
struct BagcdServerOptions {
  /// Bind address. The default serves only local clients; the protocol
  /// has no authentication, so widening this is the operator's call.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Workers in the shared pool for search and witness queries (a cyclic
  /// GLOBAL's first solve, KWISE, WITNESS); 0 answers them inline on each
  /// connection's thread, where sealed lookups always answer.
  size_t query_threads = 0;
  /// Multi-tenant registry limits (see CollectionRegistry::Options):
  /// global resident-byte budget with LRU eviction, collection-count
  /// admission cap, and per-collection snapshot byte ceiling. 0 each =
  /// unlimited (the single-tenant protocol v1 behavior).
  CollectionRegistry::Options registry;
};

/// \brief A running bagcd server: listener, connection threads, registry.
class BagcdServer {
 public:
  /// Binds, listens, and starts the accept loop. The returned server is
  /// live; call Wait() to block until shutdown.
  static Result<std::unique_ptr<BagcdServer>> Start(
      const BagcdServerOptions& options);

  /// Joins everything (idempotent with Shutdown()).
  ~BagcdServer();

  BagcdServer(const BagcdServer&) = delete;
  BagcdServer& operator=(const BagcdServer&) = delete;

  /// The bound TCP port (the actual one when options.port was 0).
  uint16_t port() const { return port_; }

  /// The shared collection registry (snapshots + STATS counters).
  CollectionRegistry& registry() { return *registry_; }

  /// Blocks until a shutdown is requested (SHUTDOWN command, a signal
  /// handler calling RequestShutdown(), or Shutdown() from another
  /// thread), then tears everything down. Returns once the server is
  /// fully stopped.
  void Wait();

  /// Signal-handler- and connection-thread-safe shutdown request: flags
  /// the server; the thread blocked in Wait() (or the next Shutdown()
  /// caller) performs the teardown.
  void RequestShutdown();

  /// Full synchronous teardown: stop accepting, close every connection,
  /// join all threads. Must not be called from a connection thread (use
  /// RequestShutdown() there); idempotent.
  void Shutdown();

 private:
  // One live (or finished-but-unjoined) connection.
  struct Conn {
    int fd = -1;
    std::thread thread;
    bool done = false;  // set by the connection thread on exit (under mu_)
  };

  BagcdServer() = default;

  // Runs on accept_thread_ with its own copy of the listener fd (the
  // member is written by Shutdown() and must not be read concurrently).
  void AcceptLoop(int listen_fd);
  void ServeConnection(Conn* conn);

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::unique_ptr<ThreadPool> query_pool_;  // null when query_threads == 0
  std::unique_ptr<CollectionRegistry> registry_;

  std::thread accept_thread_;
  std::mutex mu_;  // guards conns_ and the stop flags
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool stopped_ = false;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace bagc
