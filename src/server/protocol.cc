#include "server/protocol.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <iterator>
#include <limits>

#include "bag/bag_io.h"
#include "util/short_copy.h"

namespace bagc {

std::string_view WireErrorCode(WireError error) {
  switch (error) {
    case WireError::kParse:
      return "E_PARSE";
    case WireError::kState:
      return "E_STATE";
    case WireError::kRange:
      return "E_RANGE";
    case WireError::kEngine:
      return "E_ENGINE";
    case WireError::kInternal:
      return "E_INTERNAL";
  }
  return "E_INTERNAL";
}

WireError WireErrorForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOutOfRange:
      return WireError::kRange;
    case StatusCode::kInvalidArgument:
      return WireError::kParse;
    case StatusCode::kFailedPrecondition:
    case StatusCode::kNotFound:
      return WireError::kState;
    case StatusCode::kInternal:
      return WireError::kInternal;
    default:
      return WireError::kEngine;
  }
}

namespace {

// Appends the whitespace-separated tokens of a comment-stripped line as
// views — the bag IO lexer's rules (bag/bag_io.h), so the whole system
// has one. A manual scan, not istringstream: tokenizing sits on the
// per-request and per-row hot paths.
void SpanTokens(std::string_view s, std::vector<std::string_view>* out) {
  out->clear();
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    size_t begin = i;
    while (i < s.size() && s[i] != ' ' && s[i] != '\t') ++i;
    if (i > begin) out->push_back(s.substr(begin, i - begin));
  }
}

// Grows *out by exactly `bytes` and returns where they go.
char* Extend(std::string* out, size_t bytes) {
  const size_t at = out->size();
  out->resize(at + bytes);
  return out->data() + at;
}

// Writes v little-endian at p (unaligned); returns the end.
template <typename T>
char* PutLittleEndian(char* p, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) *p++ = static_cast<char>((v >> (8 * i)) & 0xff);
  return p;
}

// Splits the next line off the front of *text: through its '\n' (a last
// line may lack one), returned without the '\n' or a '\r' before it.
std::string_view PopLine(std::string_view* text) {
  const size_t nl = std::min(text->find('\n'), text->size());
  std::string_view line = text->substr(0, nl);
  text->remove_prefix(std::min(nl + 1, text->size()));
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

}  // namespace

std::vector<std::string> WireTokens(std::string_view line) {
  std::vector<std::string_view> spans;
  SpanTokens(StripCommentView(line), &spans);
  return std::vector<std::string>(spans.begin(), spans.end());
}

std::vector<std::string> WireSplitLines(std::string_view text) {
  std::vector<std::string> lines;
  while (!text.empty()) lines.emplace_back(PopLine(&text));
  return lines;
}

bool WireCommandHasBody(std::string_view command) {
  return command == "DICT" || command == "LOAD" || command == "LOADU32" ||
         command == "INSERT" || command == "DELETE";
}

bool WireResponseHasBody(std::string_view first_line) {
  return first_line.rfind("OK WITNESS", 0) == 0 ||
         first_line.rfind("OK STATS", 0) == 0;
}

Result<uint64_t> WireParseUint(std::string_view token) {
  uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return Status::InvalidArgument("not a non-negative integer: '" +
                                   std::string(token) + "'");
  }
  return value;
}

namespace {

// The bytes the line framing reserves: the comment marker and the token
// separators.
bool Unframeable(char c) {
  return c == '#' || c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

}  // namespace

Status WireValidateValue(std::string_view value) {
  if (value.empty() || std::any_of(value.begin(), value.end(), Unframeable)) {
    return Status::InvalidArgument(
        "value '" + std::string(value) +
        "' is not representable on the wire (empty, or contains '#' or "
        "whitespace)");
  }
  return Status::OK();
}

Status WireValidateValueTable(const uint32_t* offsets, size_t count,
                              std::string_view blob) {
  // A value holds an unframeable byte iff the blob does, and is empty
  // iff its offsets repeat; only a failing table is walked per value.
  bool clean = std::none_of(blob.begin(), blob.end(), Unframeable);
  for (size_t v = 0; clean && v < count; ++v) clean = offsets[v] != offsets[v + 1];
  if (clean) return Status::OK();
  for (size_t v = 0; v < count; ++v) {
    BAGC_RETURN_NOT_OK(WireValidateValue(
        blob.substr(offsets[v], offsets[v + 1] - offsets[v])));
  }
  return Status::OK();
}

bool WireIsIndex(std::string_view token) {
  return !token.empty() &&
         std::all_of(token.begin(), token.end(), [](char c) { return c >= '0' && c <= '9'; });
}

uint8_t WireErrorTag(WireError error) { return static_cast<uint8_t>(error); }

Result<WireError> WireErrorFromTag(uint8_t tag) {
  if (tag > static_cast<uint8_t>(WireError::kInternal)) {
    return Status::InvalidArgument("unknown error tag " + std::to_string(tag));
  }
  return static_cast<WireError>(tag);
}

void WireAppendU32(std::string* out, uint32_t v) { PutLittleEndian(Extend(out, 4), v); }

void WireAppendU64(std::string* out, uint64_t v) { PutLittleEndian(Extend(out, 8), v); }

void WireAppendString(std::string* out, std::string_view s) {
  WireAppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

void WireAppendFrame(std::string* out, uint8_t opcode, std::string_view payload) {
  WireAppendU32(out, static_cast<uint32_t>(payload.size()));
  out->push_back(static_cast<char>(opcode));
  out->append(payload.data(), payload.size());
}

namespace {

// memcpy + shift assembly, not pointer punning: payload integers are
// unaligned and a reinterpret_cast load would be UB (and trap under
// UBSan exactly where the segment tests look).
template <typename T>
bool CursorLoad(std::string_view data, size_t* pos, bool* ok, T* v) {
  if (!*ok || data.size() - *pos < sizeof(T)) {
    *ok = false;
    return false;
  }
  unsigned char raw[sizeof(T)];
  std::memcpy(raw, data.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  uint64_t acc = 0;
  for (size_t i = 0; i < sizeof(T); ++i) acc |= uint64_t{raw[i]} << (8 * i);
  *v = static_cast<T>(acc);
  return true;
}

}  // namespace

bool WireCursor::U8(uint8_t* v) { return CursorLoad(data_, &pos_, &ok_, v); }
bool WireCursor::U32(uint32_t* v) { return CursorLoad(data_, &pos_, &ok_, v); }
bool WireCursor::U64(uint64_t* v) { return CursorLoad(data_, &pos_, &ok_, v); }

bool WireCursor::String(std::string_view* v) {
  uint32_t len = 0;
  if (!U32(&len) || data_.size() - pos_ < len) {
    ok_ = false;
    return false;
  }
  *v = data_.substr(pos_, len);
  pos_ += len;
  return true;
}

// ---- Requests -------------------------------------------------------------

namespace {

// Ceiling for SEAL THREADS <n>: generous for any real host, small
// enough that thread-spawn can't exhaust process resources.
constexpr uint64_t kMaxSealThreads = 64;

// Indexed by Verb.
constexpr std::string_view kVerbNames[] = {
    "HELLO", "UPGRADE", "TEXT",   "QUIT",   "SHUTDOWN", "DICT",     "LOAD",   "LOADU32",
    "INSERT", "DELETE", "LOADSEG", "DROP",  "SEAL",     "RESET",    "ATTACH", "DETACH",
    "BEGIN", "COMMIT",  "STATS",  "TWOBAG", "PAIRWISE", "GLOBAL",   "KWISE",  "WITNESS"};

// The verbs with a frame of their own; every other verb travels as CMD.
constexpr std::pair<uint8_t, Verb> kVerbFrames[] = {
    {kFrameDict, Verb::kDict},         {kFrameRows, Verb::kLoadU32},
    {kFrameTwoBag, Verb::kTwoBag},     {kFramePairwise, Verb::kPairwise},
    {kFrameGlobal, Verb::kGlobal},     {kFrameKWise, Verb::kKWise},
    {kFrameWitness, Verb::kWitness},   {kFrameInsert, Verb::kInsert},
    {kFrameDelete, Verb::kDelete},     {kFrameBegin, Verb::kBegin},
    {kFrameCommit, Verb::kCommit}};

std::string FrameName(Verb verb) {
  return verb == Verb::kLoadU32 ? "ROWS" : std::string(VerbName(verb));
}

Status Usage(const std::string& form) {
  return Status::InvalidArgument("usage: " + form);
}

// The row-block grammar LOADU32 and INSERT/DELETE share in the text
// framing: one "id... : count" line per row (blank and comment lines
// skipped), one id per header column.
Status DecodeTextRows(const std::vector<std::string>& body, Request* r) {
  const size_t arity = r->columns.size();
  std::vector<std::string_view> rows;
  rows.reserve(body.size());
  for (const std::string& raw : body) {
    std::string_view line = StripCommentView(raw);
    if (!line.empty()) rows.push_back(line);
  }
  r->ids.resize(arity * rows.size());
  r->counts.resize(rows.size());
  std::vector<std::string_view> tokens;
  for (size_t row = 0; row < rows.size(); ++row) {
    SpanTokens(rows[row], &tokens);
    if (tokens.size() != arity + 2 || tokens[arity] != ":") {
      return Status::InvalidArgument("bad tuple line: '" + std::string(rows[row]) + "'");
    }
    for (size_t c = 0; c < arity; ++c) {
      BAGC_ASSIGN_OR_RETURN(uint64_t id, WireParseUint(tokens[c]));
      if (id > std::numeric_limits<uint32_t>::max()) {
        return Status::OutOfRange("row id " + std::string(tokens[c]) +
                                  " is wider than a u32 id");
      }
      r->ids[c * rows.size() + row] = static_cast<uint32_t>(id);
    }
    BAGC_ASSIGN_OR_RETURN(r->counts[row], WireParseUint(tokens[arity + 1]));
  }
  return Status::OK();
}

// The ROWS payload grammar the ROWS, INSERT, and DELETE frames share:
// String bag name, u32 arity, arity × String attributes, u64 nrows, then
// exactly nrows × (arity × u32 ids, u64 count).
Status DecodeFrameRows(WireCursor* cur, Request* r) {
  const std::string frame = FrameName(r->verb);
  std::string_view name;
  uint32_t ncols = 0;
  if (!cur->String(&name) || !cur->U32(&ncols) || ncols == 0) {
    return Status::InvalidArgument("malformed " + frame + " frame header");
  }
  r->name = name;
  // Every column costs at least its 4-byte length: a hostile arity must
  // not size an allocation the payload cannot back.
  r->columns.reserve(std::min<size_t>(ncols, cur->remaining() / 4));
  for (uint32_t c = 0; c < ncols; ++c) {
    std::string_view col;
    if (!cur->String(&col)) {
      return Status::InvalidArgument("malformed " + frame + " frame header");
    }
    r->columns.emplace_back(col);
  }
  uint64_t nrows = 0;
  if (!cur->U64(&nrows)) {
    return Status::InvalidArgument("malformed " + frame + " frame header");
  }
  const uint64_t row_bytes = uint64_t{ncols} * 4 + 8;
  if (nrows != cur->remaining() / row_bytes || cur->remaining() % row_bytes != 0) {
    return Status::InvalidArgument(frame + " frame declares " + std::to_string(nrows) +
                                   " rows but carries " +
                                   std::to_string(cur->remaining()) +
                                   " bytes of row data");
  }
  r->ids.resize(ncols * nrows);
  r->counts.resize(nrows);
  for (uint64_t row = 0; row < nrows; ++row) {
    for (uint32_t c = 0; c < ncols; ++c) cur->U32(&r->ids[c * nrows + row]);
    cur->U64(&r->counts[row]);
  }
  return Status::OK();
}

// The command line of a request (no newline): what a text client sends,
// and the payload of a CMD frame.
std::string RequestLine(const Request& r) {
  std::string line(VerbName(r.verb));
  auto arg = [&line](std::string_view token) {
    line += ' ';
    line += token;
  };
  switch (r.verb) {
    case Verb::kUpgrade:
      arg("BINARY");
      break;
    case Verb::kReset:
      if (r.hard) arg("HARD");
      break;
    case Verb::kSeal:
      if (r.canonical) arg("CANONICAL");
      if (r.full) arg("FULL");
      if (r.threads != 1) arg("THREADS " + std::to_string(r.threads));
      break;
    case Verb::kTwoBag:
    case Verb::kWitness:
      arg(r.bag_i);
      arg(r.bag_j);
      if (r.minimal) arg("MINIMAL");
      break;
    case Verb::kKWise:
      arg(std::to_string(r.k));
      break;
    case Verb::kDict:
      arg(r.name);
      arg(std::to_string(r.lines.size()));
      break;
    case Verb::kLoad:
    case Verb::kLoadU32:
    case Verb::kInsert:
    case Verb::kDelete:
      arg(r.name);
      for (const std::string& col : r.columns) arg(col);
      break;
    default:  // ATTACH, DROP, LOADSEG, STATS [<collection>]
      if (!r.name.empty()) arg(r.name);
  }
  return line;
}

}  // namespace

std::string_view VerbName(Verb verb) { return kVerbNames[static_cast<size_t>(verb)]; }

Result<Request> DecodeTextRequest(const std::vector<std::string>& tokens,
                                  std::vector<std::string> body) {
  const std::string& cmd = tokens[0];
  const size_t n = tokens.size();
  const auto* name = std::find(std::begin(kVerbNames), std::end(kVerbNames), cmd);
  if (name == std::end(kVerbNames)) {
    return Status::InvalidArgument("unknown command '" + cmd + "'");
  }
  Request r;
  r.verb = static_cast<Verb>(name - std::begin(kVerbNames));
  switch (r.verb) {
    case Verb::kText:
    case Verb::kQuit:
    case Verb::kShutdown:
    case Verb::kPairwise:
    case Verb::kGlobal:
      break;  // protocol v1 ignores any operands here
    case Verb::kHello:
    case Verb::kDetach:
    case Verb::kBegin:
    case Verb::kCommit:
      if (n != 1) return Usage(cmd);
      break;
    case Verb::kUpgrade:
      if (n != 2 || tokens[1] != "BINARY") return Usage("UPGRADE BINARY");
      break;
    case Verb::kReset:
      r.hard = n == 2 && tokens[1] == "HARD";
      if (n > 2 || (n == 2 && !r.hard)) return Usage("RESET [HARD]");
      break;
    case Verb::kAttach:
    case Verb::kDrop:
    case Verb::kLoadSeg:
      if (n != 2) {
        return Usage(cmd + (r.verb == Verb::kAttach ? " <collection>"
                            : r.verb == Verb::kDrop ? " <bag-name>"
                                                    : " <path>"));
      }
      r.name = tokens[1];
      break;
    case Verb::kStats:
      if (n > 2) return Usage("STATS [<collection>]");
      if (n == 2) r.name = tokens[1];
      break;
    case Verb::kSeal:
      for (size_t i = 1; i < n; ++i) {
        if (tokens[i] == "CANONICAL") {
          r.canonical = true;
        } else if (tokens[i] == "FULL") {
          r.full = true;
        } else if (tokens[i] == "THREADS" && i + 1 < n) {
          Result<uint64_t> threads = WireParseUint(tokens[++i]);
          if (!threads.ok() || *threads == 0) {
            return Status::InvalidArgument("THREADS needs a positive integer");
          }
          // One protocol line must not be able to crash the daemon:
          // spawning an absurd worker count throws std::system_error out
          // of std::thread and terminates the process for every client.
          if (*threads > kMaxSealThreads) {
            return Status::OutOfRange("THREADS must be at most " +
                                      std::to_string(kMaxSealThreads));
          }
          r.threads = *threads;
        } else {
          return Usage("SEAL [CANONICAL] [FULL] [THREADS <n>]");
        }
      }
      break;
    case Verb::kTwoBag:
    case Verb::kWitness:
      r.minimal = r.verb == Verb::kWitness && n == 4 && tokens[3] == "MINIMAL";
      if (n != 3 && !r.minimal) {
        return Usage(r.verb == Verb::kTwoBag ? "TWOBAG <i> <j>" : "WITNESS <i> <j> [MINIMAL]");
      }
      r.bag_i = tokens[1];
      r.bag_j = tokens[2];
      break;
    case Verb::kKWise: {
      if (n != 2) return Usage("KWISE <k>");
      BAGC_ASSIGN_OR_RETURN(r.k, WireParseUint(tokens[1]));
      break;
    }
    case Verb::kDict: {
      if (n != 3) return Usage("DICT <attribute> <count>");
      r.name = tokens[1];
      BAGC_ASSIGN_OR_RETURN(uint64_t count, WireParseUint(tokens[2]));
      for (const std::string& raw : body) {
        std::vector<std::string> value = WireTokens(raw);
        if (value.empty()) continue;  // blank / comment line
        if (value.size() != 1) {
          return Status::InvalidArgument("dictionary values are one token per line");
        }
        // A token can still hold a '\r' the line framing reserves; refuse
        // what a DICT frame, LOADSEG and the client refuse.
        BAGC_RETURN_NOT_OK(WireValidateValue(value[0]));
        r.lines.push_back(std::move(value[0]));
      }
      if (r.lines.size() != count) {
        return Status::InvalidArgument("DICT " + r.name + " declared " +
                                       std::to_string(count) + " values but shipped " +
                                       std::to_string(r.lines.size()));
      }
      break;
    }
    case Verb::kLoad:
    case Verb::kLoadU32:
    case Verb::kInsert:
    case Verb::kDelete:
      if (n < 3) return Usage(cmd + " <bag-name> <attribute...>");
      r.name = tokens[1];
      r.columns.assign(tokens.begin() + 2, tokens.end());
      if (r.verb == Verb::kLoad) {
        r.lines = std::move(body);
      } else {
        BAGC_RETURN_NOT_OK(DecodeTextRows(body, &r));
      }
      break;
  }
  return r;
}

Result<Request> DecodeRequestFrame(uint8_t opcode, std::string_view payload) {
  if (opcode == kFrameCmd) {
    std::vector<std::string> tokens = WireTokens(payload);
    if (tokens.empty()) return Status::InvalidArgument("empty command frame");
    if (WireCommandHasBody(tokens[0])) {
      // Bodies are line-framed; inside the binary framing they travel as
      // DICT/ROWS/INSERT/DELETE frames instead.
      const std::string& cmd = tokens[0];
      return Status::FailedPrecondition(
          cmd + " blocks are not available in binary mode; ship a " +
          (cmd == "LOAD" || cmd == "LOADU32" ? "ROWS" : cmd) + " frame");
    }
    return DecodeTextRequest(tokens);
  }
  const auto* entry = std::find_if(std::begin(kVerbFrames), std::end(kVerbFrames),
                                   [opcode](const auto& e) { return e.first == opcode; });
  if (entry == std::end(kVerbFrames)) {
    // The frame boundary is still known, so the stream can continue.
    return Status::InvalidArgument("unknown frame opcode " + std::to_string(opcode));
  }
  Request r;
  r.verb = entry->second;
  WireCursor cur(payload);
  switch (r.verb) {
    case Verb::kDict: {
      std::string_view attr;
      uint32_t count = 0;
      if (!cur.String(&attr) || !cur.U32(&count)) {
        return Status::InvalidArgument("malformed DICT frame header");
      }
      r.name = attr;
      r.lines.reserve(std::min<size_t>(count, cur.remaining() / 4));
      for (std::string_view value; r.lines.size() < count && cur.String(&value);) {
        r.lines.emplace_back(value);
      }
      if (r.lines.size() != count) {
        return Status::InvalidArgument("DICT " + r.name + " declared " +
                                       std::to_string(count) + " values but shipped " +
                                       std::to_string(r.lines.size()));
      }
      if (!cur.AtEnd()) return Status::InvalidArgument("trailing bytes in DICT frame");
      // Later text-mode responses decode through this dictionary, so a
      // frame may carry only what the text framing could.
      BAGC_RETURN_NOT_OK(WireValidateValue(r.name));
      for (const std::string& value : r.lines) BAGC_RETURN_NOT_OK(WireValidateValue(value));
      break;
    }
    case Verb::kLoadU32:
    case Verb::kInsert:
    case Verb::kDelete:
      BAGC_RETURN_NOT_OK(DecodeFrameRows(&cur, &r));
      break;
    case Verb::kTwoBag:
    case Verb::kWitness: {
      uint32_t i = 0, j = 0;
      uint8_t minimal = 0;
      const bool witness = r.verb == Verb::kWitness;
      if (!cur.U32(&i) || !cur.U32(&j) || (witness && !cur.U8(&minimal)) ||
          !cur.AtEnd() || minimal > 1) {
        return Status::InvalidArgument(witness ? "WITNESS frame carries u32 i, u32 j, u8 minimal"
                                               : "TWOBAG frame carries u32 i, u32 j");
      }
      r.bag_i = std::to_string(i);
      r.bag_j = std::to_string(j);
      r.minimal = minimal == 1;
      break;
    }
    case Verb::kKWise: {
      uint32_t k = 0;
      if (!cur.U32(&k) || !cur.AtEnd()) {
        return Status::InvalidArgument("KWISE frame carries u32 k");
      }
      r.k = k;
      break;
    }
    default:  // PAIRWISE, GLOBAL, BEGIN, COMMIT
      if (!payload.empty()) {
        return Status::InvalidArgument(FrameName(r.verb) + " frame carries no payload");
      }
  }
  return r;
}

std::string EncodeTextRequest(const Request& r) {
  std::string out = RequestLine(r);
  out += '\n';
  if (!WireCommandHasBody(VerbName(r.verb))) return out;
  for (const std::string& line : r.lines) {
    out += line;
    out += '\n';
  }
  const size_t rows = r.num_rows();
  for (size_t row = 0; row < rows; ++row) {
    for (size_t c = 0; c < r.columns.size(); ++c) {
      out += std::to_string(r.ids[c * rows + row]);
      out += ' ';
    }
    out += ": " + std::to_string(r.counts[row]) + "\n";
  }
  out += kWireEnd;
  out += '\n';
  return out;
}

Result<std::string> EncodeRequestFrame(const Request& r) {
  if (r.verb == Verb::kLoad) {
    // The binary framing has no string-row frame (it exists to avoid
    // exactly that decode/re-intern cycle); the raw-id path is LOADU32.
    return Status::FailedPrecondition(
        "LOAD blocks require text mode; use LoadBagU32 in binary mode");
  }
  const auto* entry = std::find_if(std::begin(kVerbFrames), std::end(kVerbFrames),
                                   [&r](const auto& e) { return e.second == r.verb; });
  const uint8_t opcode = entry == std::end(kVerbFrames) ? kFrameCmd : entry->first;
  std::string payload;
  auto index = [](const std::string& ref) -> Result<uint32_t> {
    Result<uint64_t> i = WireParseUint(ref);
    if (!i.ok() || *i > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument("frames address bags by u32 index, not '" + ref + "'");
    }
    return static_cast<uint32_t>(*i);
  };
  switch (r.verb) {
    case Verb::kDict:
      WireAppendString(&payload, r.name);
      WireAppendU32(&payload, static_cast<uint32_t>(r.lines.size()));
      for (const std::string& value : r.lines) WireAppendString(&payload, value);
      break;
    case Verb::kLoadU32:
    case Verb::kInsert:
    case Verb::kDelete: {
      const size_t rows = r.num_rows();
      // Sized up front: row streaming is one append per integer.
      payload.reserve(64 + rows * (r.columns.size() * 4 + 8));
      WireAppendString(&payload, r.name);
      WireAppendU32(&payload, static_cast<uint32_t>(r.columns.size()));
      for (const std::string& col : r.columns) WireAppendString(&payload, col);
      WireAppendU64(&payload, rows);
      for (size_t row = 0; row < rows; ++row) {
        for (size_t c = 0; c < r.columns.size(); ++c) {
          WireAppendU32(&payload, r.ids[c * rows + row]);
        }
        WireAppendU64(&payload, r.counts[row]);
      }
      break;
    }
    case Verb::kTwoBag:
    case Verb::kWitness: {
      BAGC_ASSIGN_OR_RETURN(uint32_t i, index(r.bag_i));
      BAGC_ASSIGN_OR_RETURN(uint32_t j, index(r.bag_j));
      WireAppendU32(&payload, i);
      WireAppendU32(&payload, j);
      if (r.verb == Verb::kWitness) payload.push_back(r.minimal ? '\1' : '\0');
      break;
    }
    case Verb::kKWise:
      if (r.k > std::numeric_limits<uint32_t>::max()) {
        return Status::InvalidArgument("KWISE frames carry a u32 k");
      }
      WireAppendU32(&payload, static_cast<uint32_t>(r.k));
      break;
    default:  // empty-payload frames, or a CMD frame carrying the line
      if (opcode == kFrameCmd) payload = RequestLine(r);
  }
  std::string frame;
  WireAppendFrame(&frame, opcode, payload);
  return frame;
}

// ---- Responses ------------------------------------------------------------

Response Response::Ok(std::string text) {
  Response r;
  r.text = std::move(text);
  return r;
}

Response Response::Err(WireError error, std::string message) {
  Response r;
  r.kind = Kind::kErr;
  r.error = error;
  r.text = std::move(message);
  return r;
}

Response Response::Error(const Status& status) {
  return Err(WireErrorForStatus(status), status.message());
}

Response Response::Verdict(bool consistent, std::vector<size_t> indices) {
  Response r;
  r.kind = Kind::kVerdict;
  r.consistent = consistent;
  r.indices = std::move(indices);
  return r;
}

namespace {

size_t DecimalDigits(uint64_t v) {
  size_t digits = 1;
  for (; v >= 10; v /= 10) ++digits;
  return digits;
}

// Writers into an exactly sized buffer: each puts its bytes at `p` and
// returns the end of what it wrote.
char* PutBytes(char* p, std::string_view bytes) {
  std::memcpy(p, bytes.data(), bytes.size());
  return p + bytes.size();
}

char* PutUint(char* p, uint64_t v) { return std::to_chars(p, p + 20, v).ptr; }

// A found witness's bag block is WriteBag's layout: the header line
// "bag <attrs...>", one row line per row, then "end".
size_t WitnessHeaderBytes(const Response& r) {
  size_t bytes = 3;
  for (const std::string& attr : r.attrs) bytes += 1 + attr.size();
  return bytes;
}

char* PutWitnessHeader(const Response& r, char* p) {
  p = PutBytes(p, "bag");
  for (const std::string& attr : r.attrs) {
    *p++ = ' ';
    p = PutBytes(p, attr);
  }
  return p;
}

// A row line: each value followed by a space, then ": <multiplicity>".
size_t WitnessRowBytes(const Response& r, size_t row) {
  const size_t arity = r.attrs.size();
  return r.value_begin((row + 1) * arity) - r.value_begin(row * arity) + arity + 2 +
         DecimalDigits(r.mults[row]);
}

char* PutWitnessRow(const Response& r, size_t row, char* p) {
  const size_t arity = r.attrs.size();
  const char* blob = r.value_blob.data();
  for (size_t k = row * arity, at = r.value_begin(k); k < (row + 1) * arity; ++k) {
    const size_t end = r.value_ends[k];
    p = CopyShort(p, blob + at, end - at);
    *p++ = ' ';
    at = end;
  }
  *p++ = ':';
  *p++ = ' ';
  return PutUint(p, r.mults[row]);
}

// "OK WITNESS <n>", the bag block and END, each line '\n'-terminated.
void AppendWitnessText(const Response& r, std::string* out) {
  const size_t rows = r.mults.size();
  size_t row_bytes = r.value_blob.size() + rows * (r.attrs.size() + 3);
  for (uint64_t mult : r.mults) row_bytes += DecimalDigits(mult);
  constexpr std::string_view kOpen = "OK WITNESS ";
  constexpr std::string_view kClose = "end\n";
  char* p = Extend(out, kOpen.size() + DecimalDigits(rows) + 1 + WitnessHeaderBytes(r) + 1 +
                            row_bytes + kClose.size() + kWireEnd.size() + 1);
  p = PutUint(PutBytes(p, kOpen), rows);
  *p++ = '\n';
  p = PutWitnessHeader(r, p);
  *p++ = '\n';
  for (size_t row = 0; row < rows; ++row) {
    p = PutWitnessRow(r, row, p);
    *p++ = '\n';
  }
  p = PutBytes(PutBytes(p, kClose), kWireEnd);
  *p = '\n';
}

// The kFrameWitnessBag frame of a found witness: u8 1, u32 arity, the
// attribute names, u64 rows, then per row each value (u32 length +
// bytes) and its u64 multiplicity.
void AppendWitnessFrame(const Response& r, std::string* out) {
  const size_t arity = r.attrs.size();
  const size_t rows = r.mults.size();
  size_t payload = 1 + 4 + 8 + rows * (8 + 4 * arity) + r.value_blob.size();
  for (const std::string& attr : r.attrs) payload += 4 + attr.size();
  char* p = Extend(out, kWireFrameHeaderBytes + payload);
  p = PutLittleEndian(p, static_cast<uint32_t>(payload));
  *p++ = static_cast<char>(kFrameWitnessBag);
  *p++ = '\1';
  p = PutLittleEndian(p, static_cast<uint32_t>(arity));
  for (const std::string& attr : r.attrs) {
    p = PutBytes(PutLittleEndian(p, static_cast<uint32_t>(attr.size())), attr);
  }
  p = PutLittleEndian(p, static_cast<uint64_t>(rows));
  const char* blob = r.value_blob.data();
  for (size_t row = 0, k = 0, at = 0; row < rows; ++row) {
    for (size_t c = 0; c < arity; ++c, ++k) {
      const uint32_t end = r.value_ends[k];
      p = CopyShort(PutLittleEndian(p, static_cast<uint32_t>(end - at)), blob + at, end - at);
      at = end;
    }
    p = PutLittleEndian(p, r.mults[row]);
  }
}

}  // namespace

std::vector<std::string> WitnessBagLines(const Response& r) {
  std::vector<std::string> lines(r.mults.size() + 2);
  lines.front().resize(WitnessHeaderBytes(r));
  PutWitnessHeader(r, lines.front().data());
  for (size_t row = 0; row < r.mults.size(); ++row) {
    std::string& line = lines[row + 1];
    line.resize(WitnessRowBytes(r, row));
    PutWitnessRow(r, row, line.data());
  }
  lines.back() = "end";
  return lines;
}

void AppendResponseText(const Response& r, std::string* out) {
  switch (r.kind) {
    case Response::Kind::kOk:
      *out += "OK ";
      *out += r.text;
      break;
    case Response::Kind::kErr:
      // "ERR <code> <message>", the message flattened to one line.
      *out += "ERR ";
      *out += WireErrorCode(r.error);
      if (!r.text.empty()) *out += ' ';
      for (char c : r.text) out->push_back(c == '\n' || c == '\r' ? ' ' : c);
      break;
    case Response::Kind::kVerdict:
      *out += r.consistent ? "OK CONSISTENT" : "OK INCONSISTENT";
      for (size_t index : r.indices) *out += " " + std::to_string(index);
      break;
    case Response::Kind::kWitness:
      if (r.found) return AppendWitnessText(r, out);
      *out += "OK NONE";
      break;
    case Response::Kind::kStats:
      *out += "OK STATS";
      for (const auto& [key, value] : r.stats) {
        *out += "\n" + key + " " + std::to_string(value);
      }
      *out += '\n';
      *out += kWireEnd;
      break;
  }
  *out += '\n';
}

void AppendResponseFrame(const Response& r, std::string* out) {
  if (r.kind == Response::Kind::kWitness && r.found) return AppendWitnessFrame(r, out);
  // The payload is written in place (`payload` aliases *out), after a
  // header that is filled in once the payload length is known.
  const size_t header = out->size();
  out->append(kWireFrameHeaderBytes, '\0');
  std::string& payload = *out;
  uint8_t opcode = kFrameOk;
  switch (r.kind) {
    case Response::Kind::kOk:
      payload += r.text;
      break;
    case Response::Kind::kErr:
      opcode = kFrameErr;
      payload.push_back(static_cast<char>(WireErrorTag(r.error)));
      payload += r.text;
      break;
    case Response::Kind::kVerdict:
      opcode = kFrameVerdict;
      payload.push_back(r.consistent ? '\1' : '\0');
      WireAppendU32(&payload, static_cast<uint32_t>(r.indices.size()));
      for (size_t index : r.indices) WireAppendU32(&payload, static_cast<uint32_t>(index));
      break;
    case Response::Kind::kWitness:  // not found: the u8 0 alone
      opcode = kFrameWitnessBag;
      payload.push_back('\0');
      break;
    case Response::Kind::kStats:
      opcode = kFrameStats;
      WireAppendU32(&payload, static_cast<uint32_t>(r.stats.size()));
      for (const auto& [key, value] : r.stats) {
        WireAppendString(&payload, key);
        WireAppendU64(&payload, value);
      }
      break;
  }
  char* p = out->data() + header;
  p = PutLittleEndian(p, static_cast<uint32_t>(out->size() - header - kWireFrameHeaderBytes));
  *p = static_cast<char>(opcode);
}

Result<Response> DecodeResponseLines(std::string_view text) {
  // Lines as WireSplitLines counts them: the last may lack its '\n'.
  const size_t num_lines = static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) +
                           (!text.empty() && text.back() != '\n');
  const std::string_view first = PopLine(&text);
  const Status malformed = Status::Internal("malformed response: '" + std::string(first) + "'");
  const std::vector<std::string> head = WireTokens(first);
  if (head.size() >= 2 && head[0] == "ERR") {
    for (uint8_t tag = 0; tag <= WireErrorTag(WireError::kInternal); ++tag) {
      const WireError error = static_cast<WireError>(tag);
      if (WireErrorCode(error) != head[1]) continue;
      const size_t space = first.find(' ', 4);
      return Response::Err(error, space == std::string_view::npos
                                      ? ""
                                      : std::string(first.substr(space + 1)));
    }
    return malformed;
  }
  if (head.size() < 2 || head[0] != "OK") return malformed;
  if (head[1] == "CONSISTENT" || head[1] == "INCONSISTENT") {
    Response verdict = Response::Verdict(head[1] == "CONSISTENT");
    for (size_t t = 2; t < head.size(); ++t) {
      Result<uint64_t> index = WireParseUint(head[t]);
      if (!index.ok()) return malformed;
      verdict.indices.push_back(static_cast<size_t>(*index));
    }
    return verdict;
  }
  Response r;
  if (first == "OK NONE" || (head[1] == "WITNESS" && head.size() == 3)) {
    r.kind = Response::Kind::kWitness;
    r.found = first != "OK NONE";
    if (!r.found) return r;
    // OK line, "bag <attrs...>", exactly the announced rows, "end", END.
    Result<uint64_t> rows = WireParseUint(head[2]);
    if (num_lines < 4 || !rows.ok() || *rows != num_lines - 4) return malformed;
    std::vector<std::string_view> tokens;
    SpanTokens(StripCommentView(PopLine(&text)), &tokens);
    if (tokens.empty() || tokens[0] != "bag") return malformed;
    r.attrs.assign(tokens.begin() + 1, tokens.end());
    const size_t arity = r.attrs.size();
    // The rest of the reply holds every value byte, so its size bounds
    // the blob.
    if (text.size() > std::numeric_limits<uint32_t>::max()) return malformed;
    r.value_blob.resize(text.size());
    r.value_ends.resize(*rows * arity);
    r.mults.resize(*rows);
    char* const blob = r.value_blob.data();
    char* p = blob;
    for (size_t row = 0, k = 0; row < *rows; ++row) {
      SpanTokens(StripCommentView(PopLine(&text)), &tokens);
      if (tokens.size() != arity + 2 || tokens[arity] != ":") return malformed;
      Result<uint64_t> mult = WireParseUint(tokens.back());
      if (!mult.ok()) return malformed;
      for (size_t c = 0; c < arity; ++c, ++k) {
        p = CopyShort(p, tokens[c].data(), tokens[c].size());
        r.value_ends[k] = static_cast<uint32_t>(p - blob);
      }
      r.mults[row] = *mult;
    }
    r.value_blob.resize(p - blob);
    if (PopLine(&text) != "end" || PopLine(&text) != kWireEnd) return malformed;
    return r;
  }
  if (first == "OK STATS") {
    r.kind = Response::Kind::kStats;
    for (size_t l = 1; l + 1 < num_lines; ++l) {
      std::vector<std::string> kv = WireTokens(PopLine(&text));
      if (kv.size() != 2) return malformed;
      Result<uint64_t> value = WireParseUint(kv[1]);
      if (!value.ok()) return malformed;
      r.stats.emplace_back(kv[0], *value);
    }
    if (PopLine(&text) != kWireEnd) return malformed;
    return r;
  }
  return Response::Ok(std::string(first.substr(3)));
}

Result<Response> DecodeResponseFrame(uint8_t opcode, std::string_view payload) {
  WireCursor cur(payload);
  Response r;
  switch (opcode) {
    case kFrameOk:
      return Response::Ok(std::string(payload));
    case kFrameErr: {
      uint8_t tag = 0;
      if (!cur.U8(&tag)) break;
      Result<WireError> error = WireErrorFromTag(tag);
      if (!error.ok()) break;
      return Response::Err(*error, std::string(payload.substr(1)));
    }
    case kFrameVerdict: {
      uint8_t consistent = 0;
      uint32_t n = 0;
      if (!cur.U8(&consistent) || !cur.U32(&n) || n > cur.remaining() / 4) break;
      r = Response::Verdict(consistent == 1);
      for (uint32_t index = 0; r.indices.size() < n && cur.U32(&index);) {
        r.indices.push_back(index);
      }
      if (cur.AtEnd()) return r;
      break;
    }
    case kFrameWitnessBag: {
      uint8_t found = 0;
      uint32_t arity = 0;
      uint64_t rows = 0;
      r.kind = Response::Kind::kWitness;
      if (!cur.U8(&found) || found > 1) break;
      r.found = found == 1;
      if (!r.found) {
        if (cur.AtEnd()) return r;
        break;
      }
      // Every count is checked against the bytes that must carry it (a
      // u32 length per name and per value, a u64 multiplicity per row),
      // so a hostile count fails here instead of allocating.
      if (!cur.U32(&arity) || arity > cur.remaining() / 4) break;
      std::string_view s;
      while (r.attrs.size() < arity && cur.String(&s)) r.attrs.emplace_back(s);
      const uint64_t row_fixed = 8 + 4 * uint64_t{arity};
      if (!cur.U64(&rows) || rows > cur.remaining() / row_fixed) break;
      // What the rows' fixed fields leave is exactly the value bytes.
      const uint64_t value_bytes = cur.remaining() - rows * row_fixed;
      if (value_bytes > std::numeric_limits<uint32_t>::max()) break;
      r.value_blob.resize(value_bytes);
      r.value_ends.resize(rows * arity);
      r.mults.resize(rows);
      char* const blob = r.value_blob.data();
      uint64_t at = 0;
      bool fits = true;
      for (uint64_t row = 0, k = 0; fits && row < rows; ++row) {
        for (uint32_t c = 0; c < arity; ++c, ++k) {
          fits = cur.String(&s) && s.size() <= value_bytes - at;
          if (!fits) break;
          at = CopyShort(blob + at, s.data(), s.size()) - blob;
          r.value_ends[k] = static_cast<uint32_t>(at);
        }
        fits = fits && cur.U64(&r.mults[row]);
      }
      if (fits && cur.AtEnd()) return r;
      break;
    }
    case kFrameStats: {
      uint32_t n = 0;
      r.kind = Response::Kind::kStats;
      if (!cur.U32(&n)) break;
      std::string_view key;
      uint64_t value = 0;
      while (r.stats.size() < n && cur.String(&key) && cur.U64(&value)) {
        r.stats.emplace_back(std::string(key), value);
      }
      if (cur.AtEnd()) return r;
      break;
    }
    default:
      return Status::Internal("unexpected server frame opcode " + std::to_string(opcode));
  }
  return Status::Internal("malformed server frame (opcode " + std::to_string(opcode) + ")");
}

}  // namespace bagc
