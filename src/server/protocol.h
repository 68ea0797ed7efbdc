// Wire-level vocabulary of the bagcd session protocol (version 1), and
// the one codec both ends use.
//
// Request -> dispatch -> Response. The protocol has two framings of one
// message set: line-oriented text (one command per line, body-carrying
// commands followed by raw lines up to "END") and, after "UPGRADE
// BINARY", length-prefixed little-endian frames ([u32 payload length]
// [u8 opcode][payload]). A text command (with its body) and a frame both
// decode into a Request; the server dispatches it once and answers with
// one Response, which the negotiated framing encodes. BagcdClient runs
// the same codec the other way round — it encodes Requests and decodes
// replies into Responses — so neither the two framings nor the two ends
// can drift. "CMD TEXT" (a kFrameCmd carrying the verb TEXT) drops back
// to lines.
//
// The full grammar, the session lifecycle, and annotated transcripts
// live in docs/PROTOCOL.md; this header is the single in-code source of
// the literal strings and byte layouts both sides must agree on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.h"

namespace bagc {

/// Protocol version spoken by this build; bumped on incompatible change.
inline constexpr int kWireProtocolVersion = 1;

/// Greeting the server writes on every fresh connection.
inline constexpr std::string_view kWireBanner = "BAGCD 1 READY";

/// Body terminator for DICT/LOAD/LOADU32 requests and WITNESS/STATS
/// responses.
inline constexpr std::string_view kWireEnd = "END";

/// Machine-readable error classes (second token of an ERR response).
enum class WireError {
  kParse,     ///< E_PARSE: malformed command, token, or block
  kState,     ///< E_STATE: command illegal in the current session state
  kRange,     ///< E_RANGE: index, id, or count outside the valid range
  kEngine,    ///< E_ENGINE: the consistency engine rejected the request
  kInternal,  ///< E_INTERNAL: server-side invariant failure
};

/// The wire token of a WireError ("E_PARSE", "E_STATE", ...).
std::string_view WireErrorCode(WireError error);

/// Maps a Status from the engine/IO layers onto the wire error class a
/// client should see: OutOfRange -> E_RANGE, InvalidArgument -> E_PARSE,
/// FailedPrecondition/NotFound -> E_STATE, everything else -> E_ENGINE.
WireError WireErrorForStatus(const Status& status);

/// Whitespace tokenizer with '#'-to-end-of-line comment stripping — the
/// same lexical rules as the bag IO format, applied to command lines.
std::vector<std::string> WireTokens(std::string_view line);

/// Splits '\n'-terminated text into lines (a trailing '\r' is dropped).
std::vector<std::string> WireSplitLines(std::string_view text);

/// True for commands whose request carries a body up to "END": DICT,
/// LOAD, LOADU32, INSERT, DELETE. The server always consumes the body of
/// such a command before responding, even when the header is invalid, so
/// one bad header cannot desynchronize the stream.
bool WireCommandHasBody(std::string_view command);

/// True for response first-lines that open a body up to "END":
/// "OK WITNESS ..." and "OK STATS".
bool WireResponseHasBody(std::string_view first_line);

/// Parses a non-negative integer token (no sign, no suffix).
Result<uint64_t> WireParseUint(std::string_view token);

/// A dictionary value or name the text framing can carry: non-empty, no
/// whitespace, no '#'. Anything else would be split or truncated by the
/// line lexer — a corruption the receiver cannot detect — so the client
/// refuses to send it and the server refuses it in frames
/// (InvalidArgument).
Status WireValidateValue(std::string_view value);

/// WireValidateValue over every value of a table in the BAGCSEG /
/// ValueDictionary shape (`count`+1 u32 prefix offsets into `blob`).
/// Scans the blob once instead of value by value; fails with the first
/// offending value's WireValidateValue error.
Status WireValidateValueTable(const uint32_t* offsets, size_t count,
                              std::string_view blob);

/// True for a non-empty all-digits token: the wire form of a bag index.
/// Bag and collection names must not have this shape, so a reference is
/// never ambiguous.
bool WireIsIndex(std::string_view token);

// ---- Binary framing ------------------------------------------------------
//
// Frame layout (both directions, after a successful "UPGRADE BINARY"):
//
//   [u32 payload_length LE][u8 opcode][payload_length bytes]
//
// Integers inside payloads are little-endian and unaligned; strings are
// length-prefixed byte sequences (no NUL, no escaping). Client->server
// opcodes are < 0x80, server->client opcodes >= 0x80.

/// Capability the server advertises in its HELLO response ("frames 1").
inline constexpr int kWireFrameVersion = 1;

/// Bytes before the payload: u32 length + u8 opcode.
inline constexpr size_t kWireFrameHeaderBytes = 5;

/// Ceiling on one frame's payload. Matches the text path's body cap: a
/// peer that claims a multi-gigabyte frame is abusing the framing and
/// the connection is dropped rather than buffered.
inline constexpr size_t kWireMaxFramePayload = size_t{1} << 28;  // 256 MiB

// Client -> server frames.
inline constexpr uint8_t kFrameCmd = 0x01;      ///< one text command line (no body)
inline constexpr uint8_t kFrameDict = 0x02;     ///< DICT block: name + values
inline constexpr uint8_t kFrameRows = 0x03;     ///< LOADU32 block: raw id rows
inline constexpr uint8_t kFrameTwoBag = 0x04;   ///< u32 i, u32 j
inline constexpr uint8_t kFramePairwise = 0x05; ///< empty payload
inline constexpr uint8_t kFrameGlobal = 0x06;   ///< empty payload
inline constexpr uint8_t kFrameKWise = 0x07;    ///< u32 k
inline constexpr uint8_t kFrameWitness = 0x08;  ///< u32 i, u32 j, u8 minimal
inline constexpr uint8_t kFrameInsert = 0x09;   ///< INSERT delta: ROWS grammar
inline constexpr uint8_t kFrameDelete = 0x0A;   ///< DELETE delta: ROWS grammar
inline constexpr uint8_t kFrameBegin = 0x0B;    ///< BEGIN: empty payload
inline constexpr uint8_t kFrameCommit = 0x0C;   ///< COMMIT: empty payload

// Server -> client frames.
inline constexpr uint8_t kFrameOk = 0x80;         ///< OK line sans "OK " prefix
inline constexpr uint8_t kFrameErr = 0x81;        ///< u8 error class + message
inline constexpr uint8_t kFrameVerdict = 0x82;    ///< u8 consistent + u32 n + n×u32
inline constexpr uint8_t kFrameWitnessBag = 0x83; ///< decoded witness rows
inline constexpr uint8_t kFrameStats = 0x84;      ///< u32 n + n×(key, u64 value)

/// The u8 payload tag of a WireError inside a kFrameErr frame, and back.
uint8_t WireErrorTag(WireError error);
Result<WireError> WireErrorFromTag(uint8_t tag);

/// Little-endian integer appenders (unaligned).
void WireAppendU32(std::string* out, uint32_t v);
void WireAppendU64(std::string* out, uint64_t v);

/// Appends a length-prefixed string: u32 byte count + bytes.
void WireAppendString(std::string* out, std::string_view s);

/// Appends one complete frame (header + payload).
void WireAppendFrame(std::string* out, uint8_t opcode, std::string_view payload);

/// \brief Bounds-checked little-endian payload reader.
///
/// Every accessor returns false once the payload is exhausted (and from
/// then on — the cursor latches failed), so a decoder can parse a whole
/// grammar and check ok() once at the end.
class WireCursor {
 public:
  explicit WireCursor(std::string_view payload) : data_(payload) {}

  bool U8(uint8_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  /// Reads a u32 length prefix, then that many bytes (view into payload).
  bool String(std::string_view* v);

  /// True while no read has run past the end.
  bool ok() const { return ok_; }
  /// True when the payload is fully consumed (trailing bytes are a
  /// framing error for fixed grammars).
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---- Requests -------------------------------------------------------------

/// Every verb of protocol v1.
enum class Verb : uint8_t {
  kHello, kUpgrade, kText, kQuit, kShutdown,
  kDict, kLoad, kLoadU32, kInsert, kDelete, kLoadSeg, kDrop,
  kSeal, kReset, kAttach, kDetach, kBegin, kCommit, kStats,
  kTwoBag, kPairwise, kGlobal, kKWise, kWitness,
};

/// The verb's command word ("LOADU32", ...).
std::string_view VerbName(Verb verb);

/// \brief One request, whichever framing carried it.
struct Request {
  Verb verb = Verb::kHello;
  /// The name operand: attribute (DICT), bag (LOAD, LOADU32, INSERT,
  /// DELETE, DROP), collection (ATTACH, STATS <name>), path (LOADSEG).
  std::string name;
  /// TWOBAG/WITNESS bag references: an index (WireIsIndex) or a name.
  std::string bag_i, bag_j;
  bool minimal = false;    ///< WITNESS ... MINIMAL
  bool hard = false;       ///< RESET HARD
  bool canonical = false;  ///< SEAL CANONICAL
  bool full = false;       ///< SEAL FULL
  uint64_t threads = 1;    ///< SEAL THREADS <n>
  uint64_t k = 0;          ///< KWISE <k>
  /// DICT values in id order, or LOAD's raw row lines (interned when
  /// applied).
  std::vector<std::string> lines;
  /// The row block of LOADU32 (the ROWS frame) and INSERT/DELETE:
  /// attribute names, the u32 ids column-major
  /// (ids[c * num_rows() + row]), and one count per row.
  std::vector<std::string> columns;
  std::vector<uint32_t> ids;
  std::vector<uint64_t> counts;

  size_t num_rows() const { return counts.size(); }
};

/// Decodes a text request: the tokens of its command line and, for a body
/// verb, the body lines before END. A decoder owns only the grammar —
/// usage, integer operands, and the DICT/row-block syntax (E_PARSE; a row
/// id wider than u32 is E_RANGE); everything else is the dispatcher's.
Result<Request> DecodeTextRequest(const std::vector<std::string>& tokens,
                                  std::vector<std::string> body = {});

/// Decodes one client frame. A CMD frame's line goes through
/// DecodeTextRequest; a body verb inside one is E_STATE (ship its frame).
Result<Request> DecodeRequestFrame(uint8_t opcode, std::string_view payload);

/// Encodes a request in the text framing: the command line and, for a
/// body verb, its body and END; every line '\n'-terminated.
std::string EncodeTextRequest(const Request& request);

/// Encodes a request as one client frame: the verb's own frame where it
/// has one, else a CMD frame. LOAD (string rows) has no frame.
Result<std::string> EncodeRequestFrame(const Request& request);

// ---- Responses ------------------------------------------------------------

/// \brief One answer, whichever framing will carry it.
///
/// A witness travels as one flat, row-major value table beside its
/// multiplicities: every value's bytes back to back in `value_blob`, and
/// one u32 end offset per value in `value_ends`. The daemon fills it from
/// its dictionaries' views, both encoders write it out in one pass into
/// an exactly sized buffer, and both decoders fill it in one pass, so
/// the values of a witness of any size take three arrays (blob, ends,
/// multiplicities), not one string each.
struct Response {
  enum class Kind : uint8_t { kOk, kErr, kVerdict, kWitness, kStats };
  Kind kind = Kind::kOk;
  /// kOk: the line after "OK " ("SEAL 2 bags"); kErr: the message.
  std::string text;
  WireError error = WireError::kInternal;
  /// kVerdict: the verdict and its failing bag indices (the pair for
  /// PAIRWISE, the subset for KWISE, none otherwise).
  bool consistent = false;
  std::vector<size_t> indices;
  /// kWitness: `found` is false for "OK NONE"; otherwise the attribute
  /// names, the decoded values row-major (cell c of row r is value
  /// r * attrs.size() + c), and one multiplicity per row. Value k is
  /// value_blob[value_begin(k), value_ends[k]).
  bool found = false;
  std::vector<std::string> attrs;
  std::string value_blob;
  std::vector<uint32_t> value_ends;
  std::vector<uint64_t> mults;
  /// kStats: key/value pairs in wire order.
  std::vector<std::pair<std::string, uint64_t>> stats;

  static Response Ok(std::string text);
  static Response Err(WireError error, std::string message);
  /// The Err for a non-OK status (WireErrorForStatus picks the class).
  static Response Error(const Status& status);
  static Response Verdict(bool consistent, std::vector<size_t> indices = {});

  /// Offset of witness value k in value_blob (the end of value k - 1).
  size_t value_begin(size_t k) const { return k == 0 ? 0 : value_ends[k - 1]; }
};

/// Text encoder: appends the response's lines, each '\n'-terminated. Its
/// output is pinned byte-for-byte by the docs/PROTOCOL.md transcripts.
void AppendResponseText(const Response& response, std::string* out);

/// The bag block of a found witness as lines: "bag <attrs...>", one
/// "<values...> : <multiplicity>" line per row, and "end" — the lines the
/// text encoder puts between "OK WITNESS <n>" and END.
std::vector<std::string> WitnessBagLines(const Response& response);

/// Binary encoder: appends the response as one server frame.
void AppendResponseFrame(const Response& response, std::string* out);

/// Decodes one complete text response where it lies: its bytes, first
/// line through END, split into lines as WireSplitLines splits them.
Result<Response> DecodeResponseLines(std::string_view text);

/// Decodes one server frame.
Result<Response> DecodeResponseFrame(uint8_t opcode, std::string_view payload);

}  // namespace bagc
