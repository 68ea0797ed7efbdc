// The WITNESS reply codec under hostile and exact bytes. Both decoders
// (DecodeResponseLines, DecodeResponseFrame) run on the golden replies of
// tests/witness_golden.h, and on a pair whose values are longer than a
// std::string's inline buffer:
//   - every reply decodes, and WitnessBagLines of the decoded text reply,
//     of the decoded frame and of the server's witness bag (WriteBag) are
//     the same lines;
//   - a truncated, byte-flipped or count-overstated reply either decodes
//     or is refused as malformed, and nothing reads out of bounds (the
//     sanitizer legs run this suite).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "util/random.h"
#include "witness_golden.h"

namespace bagc {
namespace {

using witness_golden::WitnessRequest;

bool IsMalformed(const Status& status) {
  return status.code() == StatusCode::kInternal &&
         status.message().rfind("malformed", 0) == 0;
}

// One WITNESS reply in both framings.
struct Reply {
  std::string text;
  std::string frame;
};

Reply ReplyTo(CollectionRegistry* registry, const Request& request) {
  auto [text, frame] = witness_golden::WitnessReplies(registry, {request});
  return {std::move(text), std::move(frame)};
}

// Decodes a whole server frame (header included).
Result<Response> DecodeFrame(std::string_view frame) {
  if (frame.size() < kWireFrameHeaderBytes) return Status::Internal("malformed: short header");
  return DecodeResponseFrame(static_cast<uint8_t>(frame[kWireFrameHeaderBytes - 1]),
                             frame.substr(kWireFrameHeaderBytes));
}

// Byte offsets inside a found witness frame: the u32 arity, the u64 row
// count, and the u32 length of every value.
struct FrameLayout {
  size_t arity_at = 0;
  size_t rows_at = 0;
  std::vector<size_t> value_len_at;
};

FrameLayout LayoutOf(const std::string& frame, const Response& r) {
  FrameLayout layout;
  size_t at = kWireFrameHeaderBytes + 1;
  layout.arity_at = at;
  at += 4;
  for (const std::string& attr : r.attrs) at += 4 + attr.size();
  layout.rows_at = at;
  at += 8;
  for (size_t row = 0, k = 0; row < r.mults.size(); ++row) {
    for (size_t c = 0; c < r.attrs.size(); ++c, ++k) {
      layout.value_len_at.push_back(at);
      at += 4 + (r.value_ends[k] - r.value_begin(k));
    }
    at += 8;
  }
  EXPECT_EQ(at, frame.size());
  return layout;
}

template <typename T>
std::string Overwrite(std::string bytes, size_t at, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return bytes;
}

// The truncation points of a reply: every byte of a short one; the first
// and last KiB and a stride between them for the long replies of the
// 8-bag path, whose every-byte sweep would be quadratic in its size.
std::vector<size_t> TruncationPoints(size_t size) {
  constexpr size_t kEdge = 1024;
  constexpr size_t kStride = 61;
  std::vector<size_t> points;
  for (size_t t = 0; t < size; ++t) {
    if (size <= 4 * kEdge || t < kEdge || t + kEdge >= size || t % kStride == 0) {
      points.push_back(t);
    }
  }
  return points;
}

// Every hostile variant of one reply decodes or is refused as malformed.
// A text prefix may decode as another reply ("OK WITNE" is a plain OK),
// but one that decodes as a witness is the whole witness.
void CheckHostileVariants(const Reply& reply, const std::vector<std::string>& lines,
                          uint64_t seed) {
  for (size_t t : TruncationPoints(reply.text.size())) {
    Result<Response> r = DecodeResponseLines(std::string_view(reply.text).substr(0, t));
    if (r.ok()) {
      if (r->kind == Response::Kind::kWitness) {
        EXPECT_EQ(WitnessBagLines(*r), lines) << "text cut at " << t;
      }
    } else {
      EXPECT_TRUE(IsMalformed(r.status())) << "text cut at " << t << ": " << r.status().ToString();
    }
  }
  for (size_t t : TruncationPoints(reply.frame.size())) {
    Result<Response> r = DecodeFrame(std::string_view(reply.frame).substr(0, t));
    EXPECT_FALSE(r.ok()) << "frame cut at " << t;
    if (!r.ok()) {
      EXPECT_TRUE(IsMalformed(r.status())) << r.status().ToString();
    }
  }
  // Seeded byte flips anywhere in the text reply and the frame payload
  // (the header is the transport's: it picks the payload and the decoder).
  Rng rng(seed);
  for (int flip = 0; flip < 64; ++flip) {
    std::string text = reply.text;
    text[rng.Below(text.size())] ^= static_cast<char>(1 + rng.Below(255));
    Result<Response> r = DecodeResponseLines(text);
    if (!r.ok()) {
      EXPECT_TRUE(IsMalformed(r.status())) << r.status().ToString();
    }
    std::string frame = reply.frame;
    const size_t at = kWireFrameHeaderBytes + rng.Below(frame.size() - kWireFrameHeaderBytes);
    frame[at] ^= static_cast<char>(1 + rng.Below(255));
    r = DecodeFrame(frame);
    if (!r.ok()) {
      EXPECT_TRUE(IsMalformed(r.status())) << "flip at " << at << ": " << r.status().ToString();
    }
  }
}

// Overstated (and understated) counts: the row count in both framings,
// the frame's arity and the length of its first and last values. Each
// is refused as malformed.
void CheckMisstatedCounts(const Reply& reply, const Response& decoded) {
  const uint64_t rows = decoded.mults.size();
  const size_t newline = reply.text.find('\n');
  for (uint64_t stated : {rows + 1, rows - 1, rows * 2 + 1, uint64_t{1} << 63}) {
    if (stated == rows) continue;
    std::string text = "OK WITNESS " + std::to_string(stated) + reply.text.substr(newline);
    Result<Response> r = DecodeResponseLines(text);
    ASSERT_FALSE(r.ok()) << stated << " rows stated in text";
    EXPECT_TRUE(IsMalformed(r.status())) << r.status().ToString();
  }
  const FrameLayout layout = LayoutOf(reply.frame, decoded);
  auto refused = [](const std::string& frame, const std::string& what) {
    Result<Response> r = DecodeFrame(frame);
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_TRUE(IsMalformed(r.status())) << what << ": " << r.status().ToString();
  };
  for (uint64_t stated : {rows + 1, rows - 1, rows * 2 + 1, uint64_t{1} << 32, uint64_t{1} << 63,
                          std::numeric_limits<uint64_t>::max()}) {
    if (stated == rows) continue;
    refused(Overwrite(reply.frame, layout.rows_at, stated), std::to_string(stated) + " rows");
  }
  const uint32_t arity = static_cast<uint32_t>(decoded.attrs.size());
  for (uint32_t stated : {arity + 1, uint32_t{1} << 31, std::numeric_limits<uint32_t>::max()}) {
    refused(Overwrite(reply.frame, layout.arity_at, stated), std::to_string(stated) + " attrs");
  }
  if (layout.value_len_at.empty()) return;
  for (size_t at : {layout.value_len_at.front(), layout.value_len_at.back()}) {
    uint32_t len = 0;
    for (size_t i = 0; i < 4; ++i) len |= uint32_t{static_cast<uint8_t>(reply.frame[at + i])} << (8 * i);
    for (uint32_t stated : {len + 1, len + 13, uint32_t{1} << 31,
                            std::numeric_limits<uint32_t>::max()}) {
      refused(Overwrite(reply.frame, at, stated),
              "value length " + std::to_string(stated) + " at byte " + std::to_string(at));
    }
  }
}

// Runs every check on the WITNESS replies to `requests` over `registry`.
void CheckReplies(CollectionRegistry* registry, const std::vector<Request>& requests,
                  bool hostile_on_first_only) {
  Result<std::shared_ptr<const EngineSnapshot>> snapshot =
      registry->Acquire(registry->Default().get());
  ASSERT_TRUE(snapshot.ok() && *snapshot != nullptr);
  for (size_t q = 0; q < requests.size(); ++q) {
    const Request& request = requests[q];
    SCOPED_TRACE("WITNESS " + request.bag_i + " " + request.bag_j +
                 (request.minimal ? " MINIMAL" : ""));
    const Reply reply = ReplyTo(registry, request);
    Result<Response> text = DecodeResponseLines(reply.text);
    Result<Response> frame = DecodeFrame(reply.frame);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_TRUE(text->found && frame->found);
    Result<std::optional<Bag>> bag = (*snapshot)->Witness(
        std::stoul(request.bag_i), std::stoul(request.bag_j), request.minimal);
    ASSERT_TRUE(bag.ok() && bag->has_value());
    const std::vector<std::string> lines = WitnessBagLines(*text);
    EXPECT_EQ(WitnessBagLines(*frame), lines);
    EXPECT_EQ(lines, WireSplitLines((*snapshot)->WriteBagText(**bag)));
    if (q == 0 || !hostile_on_first_only) {
      CheckHostileVariants(reply, lines, 1000 + q);
      CheckMisstatedCounts(reply, *text);
    }
  }
}

TEST(WitnessCodecTest, GoldenRepliesRoundTripAndRefuseHostileBytes) {
  for (size_t k = 0; k < witness_golden::kCases; ++k) {
    SCOPED_TRACE("golden case " + std::to_string(k));
    const std::string seg = testing::TempDir() + "witness_codec_golden_path.seg";
    CollectionRegistry registry;
    const std::vector<Request> requests = witness_golden::PublishCase(k, &registry, seg);
    // The 8-bag path's seven replies share one shape; the hostile sweep
    // runs on the first.
    CheckReplies(&registry, requests, /*hostile_on_first_only=*/k == 0);
    std::remove(seg.c_str());
  }
}

TEST(WitnessCodecTest, ValuesPastTheInlineStringBufferRoundTrip) {
  // A consistent numeric pair re-interned through dictionaries whose
  // values run from 12 to 23 bytes, across std::string's 15-byte inline
  // buffer.
  Rng rng(32);
  BagGenOptions options;
  options.support_size = 80;
  options.domain_size = 12;
  auto [r, s] = *MakeConsistentPair(Schema{{0, 1}}, Schema{{1, 2}}, options, &rng);
  auto dicts = std::make_shared<DictionarySet>();
  auto intern = [&](const Bag& numeric) {
    BagBuilder builder(numeric.schema());
    std::vector<std::string> tokens(numeric.schema().arity());
    for (size_t e = 0; e < numeric.SupportSize(); ++e) {
      Tuple t = numeric.RowAt(e);
      for (size_t c = 0; c < tokens.size(); ++c) {
        tokens[c] = "long-value-" + std::to_string(t.at(c));
        tokens[c].append(static_cast<size_t>(t.at(c) % 11), '~');
      }
      EXPECT_TRUE(builder.AddExternal(tokens, numeric.MultiplicityAt(e), dicts.get()).ok());
    }
    return *builder.Build();
  };
  Bag long_r = intern(r);
  Bag long_s = intern(s);
  CollectionRegistry registry;
  witness_golden::PublishPair(&registry, std::move(long_r), std::move(long_s), dicts);
  const Reply reply = ReplyTo(&registry, WitnessRequest(0, 1, false));
  Result<Response> decoded = DecodeResponseLines(reply.text);
  ASSERT_TRUE(decoded.ok());
  size_t longest = 0;
  for (size_t k = 0; k < decoded->value_ends.size(); ++k) {
    longest = std::max<size_t>(longest, decoded->value_ends[k] - decoded->value_begin(k));
  }
  EXPECT_GT(longest, 15u);
  CheckReplies(&registry, witness_golden::PairRequests(), /*hostile_on_first_only=*/false);
}

TEST(WitnessCodecTest, BlankOrCommentBagHeaderIsMalformed) {
  // The bag header line of an "OK WITNESS n" reply must carry "bag": a
  // blank or comment-only line there is refused, not read past.
  for (const char* header : {"", "   # c", "#", "\t"}) {
    SCOPED_TRACE(std::string("header '") + header + "'");
    Result<Response> r =
        DecodeResponseLines("OK WITNESS 1\n" + std::string(header) + "\n1 : 1\nend\nEND\n");
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(IsMalformed(r.status())) << r.status().ToString();
  }
  // The same reply with a header decodes.
  Result<Response> r = DecodeResponseLines("OK WITNESS 1\nbag a\n1 : 1\nend\nEND\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(WitnessBagLines(*r), (std::vector<std::string>{"bag a", "1 : 1", "end"}));
}

TEST(WitnessCodecTest, EmptyWitnessRoundTrips) {
  // A found witness with no rows (two empty bags), in both framings.
  Response empty;
  empty.kind = Response::Kind::kWitness;
  empty.found = true;
  empty.attrs = {"a0", "a1"};
  std::string text, frame;
  AppendResponseText(empty, &text);
  AppendResponseFrame(empty, &frame);
  EXPECT_EQ(text, "OK WITNESS 0\nbag a0 a1\nend\nEND\n");
  Result<Response> from_text = DecodeResponseLines(text);
  Result<Response> from_frame = DecodeFrame(frame);
  ASSERT_TRUE(from_text.ok() && from_frame.ok());
  EXPECT_EQ(WitnessBagLines(*from_text), (std::vector<std::string>{"bag a0 a1", "end"}));
  EXPECT_EQ(WitnessBagLines(*from_frame), WitnessBagLines(*from_text));
}

}  // namespace
}  // namespace bagc
