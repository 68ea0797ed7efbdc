// Client side of the bagcd protocol: a blocking TCP client plus typed
// helpers for the session lifecycle (ship dictionaries once, stream u32
// rows, seal, query), and the transcript replayer that both the bagctl
// CLI and the protocol conformance test use to run the annotated
// transcript in docs/PROTOCOL.md verbatim against a live server.
//
// Request -> Response, on the server's own codec (server/protocol.h): a
// typed helper builds a Request, encodes it for the negotiated framing
// (text lines, or one frame after UpgradeBinary), and decodes the reply
// into a Response. The helpers therefore never branch on the framing,
// and callers switch framings (UpgradeBinary / DowngradeText) without
// changing call sites. Command() sends a raw line and returns the text
// lines of the reply; in binary mode it renders the reply frame through
// the server's text encoder, so the lines are byte-identical either way.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bag/bag.h"
#include "server/protocol.h"
#include "tuple/attribute.h"
#include "tuple/value_dictionary.h"
#include "util/result.h"

namespace bagc {

/// \brief One client connection to a bagcd server.
///
/// Blocking, single-threaded use; open several clients for concurrency.
class BagcdClient {
 public:
  /// Connects and consumes the server banner (available via banner()).
  static Result<BagcdClient> Connect(const std::string& host, uint16_t port);

  BagcdClient(BagcdClient&& other) noexcept;
  BagcdClient& operator=(BagcdClient&& other) noexcept;
  BagcdClient(const BagcdClient&) = delete;
  BagcdClient& operator=(const BagcdClient&) = delete;
  ~BagcdClient();

  /// The greeting line the server sent on connect ("BAGCD 1 READY").
  const std::string& banner() const { return banner_; }

  /// Sends one raw line (newline appended).
  Status SendLine(const std::string& line);

  /// Reads the next response line (without its newline).
  Result<std::string> ReadLine();

  /// One request/response round trip: sends `command` (plus `body` lines
  /// and the END terminator when non-empty), then reads the complete
  /// response — one line, or through the trailing END for WITNESS/STATS.
  /// Returns all response lines; the first is the OK/ERR line. In binary
  /// mode the command travels as a CMD frame (body-carrying commands are
  /// rejected — ship DICT/ROWS frames instead) and the response frame is
  /// rendered as the byte-identical text lines.
  Result<std::vector<std::string>> Command(const std::string& command,
                                           const std::vector<std::string>& body = {});

  // ---- Binary framing ------------------------------------------------------

  /// HELLO; returns the (protocol, frame) versions the server speaks.
  Result<std::pair<int, int>> Hello();

  /// UPGRADE BINARY: after the server's OK both directions switch to
  /// length-prefixed frames. Typed helpers keep working transparently.
  Status UpgradeBinary();

  /// Drops back to the text framing (CMD frame carrying "TEXT").
  Status DowngradeText();

  /// True after a successful UpgradeBinary (and before DowngradeText).
  bool binary_mode() const { return binary_; }

  /// Sends one raw frame. Binary mode only.
  Status SendFrame(uint8_t opcode, std::string_view payload);

  // ---- Typed session helpers ----------------------------------------------

  /// Ships every dictionary of `dicts` covering `schema`'s attributes as
  /// DICT blocks (ids are preserved verbatim: block order == id order),
  /// skipping attributes already shipped over this client. Names come
  /// from `catalog`.
  Status ShipDictionaries(const DictionarySet& dicts, const Schema& schema,
                          const AttributeCatalog& catalog);

  /// Streams `bag` as a LOADU32 block of raw id rows. The bag must have
  /// been sealed through the same dictionaries this client shipped.
  Status LoadBagU32(const std::string& name, const Bag& bag,
                    const AttributeCatalog& catalog);

  /// Streams `bag` as a LOAD block of external string rows, decoding each
  /// id through `dicts` (the strings-every-query baseline path).
  Status LoadBagText(const std::string& name, const Bag& bag,
                     const AttributeCatalog& catalog, const DictionarySet& dicts);

  /// SEAL; returns the number of sealed bags.
  Result<size_t> Seal(bool canonical = false, size_t threads = 1);

  /// TWOBAG i j; true = consistent.
  Result<bool> TwoBag(size_t i, size_t j);

  /// PAIRWISE; nullopt = consistent, else the failing pair.
  Result<std::optional<std::pair<size_t, size_t>>> Pairwise();

  /// GLOBAL; true = consistent.
  Result<bool> Global();

  /// KWISE k; nullopt = consistent, else the first failing subset.
  Result<std::optional<std::vector<size_t>>> KWise(size_t k);

  /// WITNESS i j [MINIMAL]; the witness bag block's raw text lines
  /// (header/rows/end), or nullopt when the pair is inconsistent.
  Result<std::optional<std::vector<std::string>>> Witness(size_t i, size_t j,
                                                          bool minimal);

 private:
  BagcdClient() = default;

  // One typed round trip in the current framing. A reply of any kind but
  // `expected` — an Err above all — becomes the Status
  // "server said: <its first text line>".
  Result<Response> Call(const Request& request, Response::Kind expected);
  // Reads until the line starting at inbuf_[begin] is whole; returns
  // the offset just past its '\n'.
  Result<size_t> LineEnd(size_t begin);
  // Reads until one whole text reply (its first line, through END for
  // WITNESS/STATS) is at the front of inbuf_; returns its size.
  Result<size_t> BufferReply();
  // Reads one text reply and decodes it where it lies in inbuf_.
  Result<Response> ReadReplyText();
  // Reads until one whole frame is at the front of inbuf_; returns its
  // payload length.
  Result<size_t> BufferFrame();
  // Reads one server frame and decodes it where it lies in inbuf_.
  Result<Response> ReadReplyFrame();

  int fd_ = -1;
  std::string banner_;
  std::string inbuf_;
  bool binary_ = false;
  std::vector<AttrId> shipped_;  // attributes already shipped as DICT blocks
};

/// Replays a C:/S: transcript against a live server and fails on the
/// first divergence. `text` is either a raw transcript or a markdown
/// document containing ```transcript fenced blocks (docs/PROTOCOL.md);
/// each block replays over its own fresh connection, and must therefore
/// begin with the banner expectation "S: BAGCD 1 READY". Lines starting
/// with "C: " are sent verbatim; lines starting with "S: " must match
/// the next server line byte-for-byte; "#" comment and blank lines are
/// ignored. Returns the number of replayed blocks.
Result<size_t> ReplayTranscript(const std::string& host, uint16_t port,
                                const std::string& text);

}  // namespace bagc
