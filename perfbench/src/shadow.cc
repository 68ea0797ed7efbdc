#include "shadow.h"

#include <future>
#include <thread>

#include "common.h"
#include "engine/consistency_engine.h"
#include "server/protocol.h"
#include "tuple/segment.h"

namespace perfbench {

void ShadowLoad(Shadow* shadow, const std::string& collection,
                const std::string& segment) {
  bagc::ServerSession loader(&shadow->registry, nullptr);
  std::string script;
  if (collection != bagc::kDefaultCollectionName) script += "ATTACH " + collection + "\n";
  script += "LOADSEG " + segment + "\nSEAL\n";
  for (const std::string& response : loader.HandleScript(script)) {
    if (response.rfind("OK", 0) != 0) Fail("shadow load: " + response);
  }
}

void TimeReloadLayers(const std::string& segment, bagc::BagCollection collection,
                      SpanBuffer* spans, uint32_t parent, uint64_t request) {
  uint64_t t0 = NowNs();
  bagc::Result<bagc::SegmentReader> mapped = bagc::SegmentReader::Map(segment);
  uint64_t t1 = NowNs();
  Check(mapped.status(), "map " + segment);
  spans->Add(kSegmentMap, parent, request, t0, t1);
  t0 = NowNs();
  bagc::Result<bagc::ConsistencyEngine> engine =
      bagc::ConsistencyEngine::Make(std::move(collection));
  t1 = NowNs();
  Check(engine.status(), "seal");
  spans->Add(kEngineSeal, parent, request, t0, t1);
}

std::unique_ptr<bagc::ServerSession> ShadowSession(Shadow* shadow, bool binary) {
  auto session = std::make_unique<bagc::ServerSession>(&shadow->registry, &shadow->pool);
  if (binary) {
    std::string out;
    session->HandleData("UPGRADE BINARY\n", &out);
    if (!session->binary_mode()) Fail("shadow session refused UPGRADE BINARY");
  }
  return session;
}

void SampleHandoff(bagc::ThreadPool* pool, const std::function<int()>& phase,
                   SpanBuffer* spans) {
  uint64_t request = 0;
  for (int p = phase(); p != kStop; p = phase()) {
    if (p == kSample) {
      // Shared, so the worker may still be inside set_value when the
      // future wakes this thread and the loop moves on.
      auto started = std::make_shared<std::promise<uint64_t>>();
      std::future<uint64_t> start_ns = started->get_future();
      uint64_t submit_ns = NowNs();
      pool->Submit([started] { started->set_value(NowNs()); });
      spans->Add(kPoolHandoff, 0, ++request, submit_ns, start_ns.get());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void ReplayTwoBag(bagc::ServerSession* session, const bagc::EngineSnapshot* snapshot,
                  size_t i, size_t j, bool binary, uint32_t root, uint64_t request,
                  SpanBuffer* spans) {
  std::string out;
  uint64_t s0 = NowNs();
  session->HandleData(TwoBagBytes(i, j, binary), &out);
  uint64_t s1 = NowNs();
  uint32_t parent = spans->Add(binary ? kSessionBinary : kSessionText, root, request, s0, s1);
  if (snapshot == nullptr) return;
  uint64_t e0 = NowNs();
  bagc::Result<bool> verdict = snapshot->TwoBag(i, j);
  uint64_t e1 = NowNs();
  Check(verdict.status(), "in-process TWOBAG");
  spans->Add(kSnapshotTwoBag, parent, request, e0, e1);
}

std::string TwoBagBytes(size_t i, size_t j, bool binary) {
  if (!binary) return "TWOBAG " + std::to_string(i) + " " + std::to_string(j) + "\n";
  std::string payload, frame;
  bagc::WireAppendU32(&payload, static_cast<uint32_t>(i));
  bagc::WireAppendU32(&payload, static_cast<uint32_t>(j));
  bagc::WireAppendFrame(&frame, bagc::kFrameTwoBag, payload);
  return frame;
}

std::string WitnessBytes(size_t i, size_t j, bool binary) {
  if (!binary) return "WITNESS " + std::to_string(i) + " " + std::to_string(j) + "\n";
  std::string payload, frame;
  bagc::WireAppendU32(&payload, static_cast<uint32_t>(i));
  bagc::WireAppendU32(&payload, static_cast<uint32_t>(j));
  payload.push_back('\0');  // not minimal
  bagc::WireAppendFrame(&frame, bagc::kFrameWitness, payload);
  return frame;
}

std::string CommandBytes(const std::string& line, bool binary) {
  if (!binary) return line + "\n";
  std::string frame;
  bagc::WireAppendFrame(&frame, bagc::kFrameCmd, line);
  return frame;
}

}  // namespace perfbench
