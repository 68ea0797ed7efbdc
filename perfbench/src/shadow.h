// The in-process twin of the daemon that a traced run replays every
// request through: a CollectionRegistry with the daemon's options, a
// query pool of the daemon's --threads size, and one ServerSession per
// client, fed the exact bytes that client sent over the socket.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "core/collection.h"
#include "server/collection_registry.h"
#include "server/session.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace perfbench {

/// Query-pool workers of every daemon the benchmark starts (--threads).
inline constexpr size_t kDaemonThreads = 4;

struct Shadow {
  explicit Shadow(const bagc::CollectionRegistry::Options& options)
      : registry(options), pool(kDaemonThreads) {}

  bagc::CollectionRegistry registry;
  bagc::ThreadPool pool;
};

/// LOADSEG + SEAL of `segment` into `collection` through a fresh inline
/// session, as a client (or bagcd --preload-seg) does.
void ShadowLoad(Shadow* shadow, const std::string& collection,
                const std::string& segment);

/// Times the two halves of a segment reload — SegmentReader::Map of
/// `segment` and ConsistencyEngine::Make of `collection` — as
/// kSegmentMap and kEngineSeal spans under `parent`.
void TimeReloadLayers(const std::string& segment, bagc::BagCollection collection,
                      SpanBuffer* spans, uint32_t parent, uint64_t request);

/// A session on the shadow's pool, upgraded to the binary framing when
/// `binary`.
std::unique_ptr<bagc::ServerSession> ShadowSession(Shadow* shadow, bool binary);

/// Samples ThreadPool::Submit-to-task-start latency about once per
/// millisecond as kPoolHandoff root spans, while `phase()` returns
/// kSample; returns once it returns kStop.
enum SamplerPhase { kWait = 0, kSample = 1, kStop = 2 };
void SampleHandoff(bagc::ThreadPool* pool, const std::function<int()>& phase,
                   SpanBuffer* spans);

/// Replays one TWOBAG through `session` as a kSessionText or
/// kSessionBinary span under `root`, and times EngineSnapshot::TwoBag on
/// `snapshot` beneath it (skipped when `snapshot` is null).
void ReplayTwoBag(bagc::ServerSession* session, const bagc::EngineSnapshot* snapshot,
                  size_t i, size_t j, bool binary, uint32_t root, uint64_t request,
                  SpanBuffer* spans);

/// The bytes a BagcdClient sends for each request, per framing.
std::string TwoBagBytes(size_t i, size_t j, bool binary);
std::string WitnessBytes(size_t i, size_t j, bool binary);
std::string CommandBytes(const std::string& line, bool binary);

}  // namespace perfbench
