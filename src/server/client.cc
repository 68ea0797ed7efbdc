#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "bag/bag_io.h"
#include "server/protocol.h"

namespace bagc {

namespace {

// MSG_NOSIGNAL: a vanished server must come back as an error Status, not
// a SIGPIPE that kills the client process.
Status WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("send(): ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

// Appends the next bytes the server sent to *inbuf, up to 64 KiB per
// read, so a large WITNESS reply costs few syscalls.
Status ReadMore(int fd, std::string* inbuf) {
  char chunk[64 * 1024];
  ssize_t n;
  do {
    n = ::read(fd, chunk, sizeof(chunk));
  } while (n < 0 && errno == EINTR);
  if (n < 0) return Status::Internal(std::string("read(): ") + std::strerror(errno));
  if (n == 0) return Status::Internal("server closed the connection");
  inbuf->append(chunk, static_cast<size_t>(n));
  return Status::OK();
}

// Line [begin, end) of `buf`, which ends in '\n', without the '\n' or a
// '\r' before it.
std::string_view LineOf(std::string_view buf, size_t begin, size_t end) {
  std::string_view line = buf.substr(begin, end - begin - 1);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

// "OK ..." passes through; "ERR ..." (or anything else) becomes an error
// Status carrying the server's line.
Status ExpectOk(const std::vector<std::string>& response) {
  if (!response.empty() && response.front().rfind("OK", 0) == 0) {
    return Status::OK();
  }
  return Status::Internal("server said: " +
                          (response.empty() ? "<nothing>" : response.front()));
}

}  // namespace

Result<BagcdClient> BagcdClient::Connect(const std::string& host, uint16_t port) {
  BagcdClient client;
  client.fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (client.fd_ < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad address '" + host + "'");
  }
  if (::connect(client.fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Internal("connect(" + host + ":" + std::to_string(port) +
                            "): " + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(client.fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  BAGC_ASSIGN_OR_RETURN(client.banner_, client.ReadLine());
  if (client.banner_.rfind("BAGCD ", 0) != 0) {
    return Status::Internal("unexpected banner: '" + client.banner_ + "'");
  }
  return client;
}

BagcdClient::BagcdClient(BagcdClient&& other) noexcept
    : fd_(other.fd_),
      banner_(std::move(other.banner_)),
      inbuf_(std::move(other.inbuf_)),
      binary_(other.binary_),
      shipped_(std::move(other.shipped_)) {
  other.fd_ = -1;
}

BagcdClient& BagcdClient::operator=(BagcdClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    banner_ = std::move(other.banner_);
    inbuf_ = std::move(other.inbuf_);
    binary_ = other.binary_;
    shipped_ = std::move(other.shipped_);
    other.fd_ = -1;
  }
  return *this;
}

BagcdClient::~BagcdClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status BagcdClient::SendLine(const std::string& line) {
  return WriteAll(fd_, line + "\n");
}

Result<size_t> BagcdClient::LineEnd(size_t begin) {
  size_t scanned = begin;
  while (true) {
    size_t nl = inbuf_.find('\n', scanned);
    if (nl != std::string::npos) return nl + 1;
    scanned = inbuf_.size();
    BAGC_RETURN_NOT_OK(ReadMore(fd_, &inbuf_));
  }
}

Result<std::string> BagcdClient::ReadLine() {
  BAGC_ASSIGN_OR_RETURN(size_t end, LineEnd(0));
  std::string line(LineOf(inbuf_, 0, end));
  inbuf_.erase(0, end);
  return line;
}

Status BagcdClient::SendFrame(uint8_t opcode, std::string_view payload) {
  std::string frame;
  frame.reserve(kWireFrameHeaderBytes + payload.size());
  WireAppendFrame(&frame, opcode, payload);
  return WriteAll(fd_, frame);
}

Result<size_t> BagcdClient::BufferFrame() {
  while (true) {
    if (inbuf_.size() >= kWireFrameHeaderBytes) {
      WireCursor header(std::string_view(inbuf_).substr(0, kWireFrameHeaderBytes));
      uint32_t payload_len = 0;
      header.U32(&payload_len);
      if (payload_len > kWireMaxFramePayload) {
        return Status::Internal("server frame payload of " +
                                std::to_string(payload_len) +
                                " bytes exceeds the frame ceiling");
      }
      if (inbuf_.size() >= kWireFrameHeaderBytes + payload_len) return size_t{payload_len};
    }
    BAGC_RETURN_NOT_OK(ReadMore(fd_, &inbuf_));
  }
}

Result<size_t> BagcdClient::BufferReply() {
  BAGC_ASSIGN_OR_RETURN(size_t end, LineEnd(0));
  bool body = WireResponseHasBody(LineOf(inbuf_, 0, end));
  while (body) {
    const size_t begin = end;
    BAGC_ASSIGN_OR_RETURN(end, LineEnd(begin));
    body = LineOf(inbuf_, begin, end) != kWireEnd;
  }
  return end;
}

Result<Response> BagcdClient::ReadReplyText() {
  BAGC_ASSIGN_OR_RETURN(size_t size, BufferReply());
  Result<Response> response = DecodeResponseLines(std::string_view(inbuf_).substr(0, size));
  inbuf_.erase(0, size);
  return response;
}

Result<Response> BagcdClient::ReadReplyFrame() {
  BAGC_ASSIGN_OR_RETURN(size_t payload_len, BufferFrame());
  Result<Response> response =
      DecodeResponseFrame(static_cast<uint8_t>(inbuf_[kWireFrameHeaderBytes - 1]),
                          std::string_view(inbuf_).substr(kWireFrameHeaderBytes, payload_len));
  inbuf_.erase(0, kWireFrameHeaderBytes + payload_len);
  return response;
}

Result<std::vector<std::string>> BagcdClient::Command(
    const std::string& command, const std::vector<std::string>& body) {
  std::vector<std::string> tokens = WireTokens(command);
  bool has_body = !tokens.empty() && WireCommandHasBody(tokens[0]);
  if (!has_body && !body.empty()) {
    return Status::InvalidArgument("command '" + command + "' takes no body");
  }
  if (binary_) {
    if (has_body) {
      return Status::InvalidArgument(
          "command '" + command +
          "' carries a body; ship a DICT/ROWS frame in binary mode");
    }
    BAGC_RETURN_NOT_OK(SendFrame(kFrameCmd, command));
    BAGC_ASSIGN_OR_RETURN(Response response, ReadReplyFrame());
    // CMD TEXT's Ok frame is the last frame on the wire: the connection
    // is line-oriented again from the next byte.
    if (response.kind == Response::Kind::kOk && response.text == "TEXT") binary_ = false;
    std::string text;
    AppendResponseText(response, &text);
    return WireSplitLines(text);
  }
  std::string request = command + "\n";
  if (has_body) {
    for (const std::string& line : body) request += line + "\n";
    request += std::string(kWireEnd) + "\n";
  }
  BAGC_RETURN_NOT_OK(WriteAll(fd_, request));
  BAGC_ASSIGN_OR_RETURN(size_t size, BufferReply());
  std::vector<std::string> response = WireSplitLines(std::string_view(inbuf_).substr(0, size));
  inbuf_.erase(0, size);
  // A successful text-mode UPGRADE flips this client to frames too.
  if (command == "UPGRADE BINARY" && response.front() == "OK UPGRADE BINARY") {
    binary_ = true;
  }
  return response;
}

Result<Response> BagcdClient::Call(const Request& request, Response::Kind expected) {
  Response response;
  if (binary_) {
    BAGC_ASSIGN_OR_RETURN(std::string frame, EncodeRequestFrame(request));
    BAGC_RETURN_NOT_OK(WriteAll(fd_, frame));
    BAGC_ASSIGN_OR_RETURN(response, ReadReplyFrame());
  } else {
    BAGC_RETURN_NOT_OK(WriteAll(fd_, EncodeTextRequest(request)));
    BAGC_ASSIGN_OR_RETURN(response, ReadReplyText());
  }
  if (response.kind == expected) return response;
  std::string text;
  AppendResponseText(response, &text);
  return Status::Internal("server said: " + text.substr(0, text.find('\n')));
}

Result<std::pair<int, int>> BagcdClient::Hello() {
  Request request;
  request.verb = Verb::kHello;
  BAGC_ASSIGN_OR_RETURN(Response response, Call(request, Response::Kind::kOk));
  std::vector<std::string> tokens = WireTokens(response.text);
  if (tokens.size() != 5 || tokens[0] != "HELLO" || tokens[1] != "proto" ||
      tokens[3] != "frames") {
    return Status::Internal("bad HELLO response: 'OK " + response.text + "'");
  }
  BAGC_ASSIGN_OR_RETURN(uint64_t proto, WireParseUint(tokens[2]));
  BAGC_ASSIGN_OR_RETURN(uint64_t frames, WireParseUint(tokens[4]));
  return std::make_pair(static_cast<int>(proto), static_cast<int>(frames));
}

Status BagcdClient::UpgradeBinary() {
  if (binary_) return Status::OK();
  BAGC_ASSIGN_OR_RETURN(std::vector<std::string> response,
                        Command("UPGRADE BINARY"));
  return ExpectOk(response);  // Command() flipped binary_ on the OK
}

Status BagcdClient::DowngradeText() {
  if (!binary_) return Status::OK();
  BAGC_ASSIGN_OR_RETURN(std::vector<std::string> response, Command("TEXT"));
  return ExpectOk(response);  // Command() flipped binary_ on the OK
}

Status BagcdClient::ShipDictionaries(const DictionarySet& dicts,
                                     const Schema& schema,
                                     const AttributeCatalog& catalog) {
  for (AttrId attr : schema.attrs()) {
    if (std::find(shipped_.begin(), shipped_.end(), attr) != shipped_.end()) continue;
    const ValueDictionary* dict = dicts.find_dict(attr);
    if (dict == nullptr) continue;  // nothing to ship for this attribute
    Request request;
    request.verb = Verb::kDict;
    request.name = catalog.Name(attr);
    request.lines.reserve(dict->size());
    for (size_t id = 0; id < dict->size(); ++id) {
      std::string_view value = dict->ExternalOf(static_cast<ValueId>(id));
      BAGC_RETURN_NOT_OK(WireValidateValue(value));
      request.lines.emplace_back(value);
    }
    BAGC_RETURN_NOT_OK(Call(request, Response::Kind::kOk).status());
    shipped_.push_back(attr);
  }
  return Status::OK();
}

Status BagcdClient::LoadBagU32(const std::string& name, const Bag& bag,
                               const AttributeCatalog& catalog) {
  const size_t arity = bag.schema().arity();
  const size_t rows = bag.SupportSize();
  Request request;
  request.verb = Verb::kLoadU32;
  request.name = name;
  for (AttrId attr : bag.schema().attrs()) request.columns.push_back(catalog.Name(attr));
  request.ids.resize(arity * rows);
  request.counts.resize(rows);
  for (size_t e = 0; e < rows; ++e) {
    for (size_t i = 0; i < arity; ++i) request.ids[i * rows + e] = bag.IdAt(e, i);
    request.counts[e] = bag.MultiplicityAt(e);
  }
  return Call(request, Response::Kind::kOk).status();
}

Result<size_t> BagcdClient::Seal(bool canonical, size_t threads) {
  Request request;
  request.verb = Verb::kSeal;
  request.canonical = canonical;
  request.threads = std::max<size_t>(threads, 1);
  BAGC_ASSIGN_OR_RETURN(Response response, Call(request, Response::Kind::kOk));
  // "SEAL <m> bags [<r> reused]"
  std::vector<std::string> tokens = WireTokens(response.text);
  if (tokens.size() < 3 || tokens[0] != "SEAL" || tokens[2] != "bags") {
    return Status::Internal("bad SEAL response: 'OK " + response.text + "'");
  }
  BAGC_ASSIGN_OR_RETURN(uint64_t bags, WireParseUint(tokens[1]));
  return static_cast<size_t>(bags);
}

Result<bool> BagcdClient::TwoBag(size_t i, size_t j) {
  Request request;
  request.verb = Verb::kTwoBag;
  request.bag_i = std::to_string(i);
  request.bag_j = std::to_string(j);
  BAGC_ASSIGN_OR_RETURN(Response response, Call(request, Response::Kind::kVerdict));
  return response.consistent;
}

Result<std::optional<std::pair<size_t, size_t>>> BagcdClient::Pairwise() {
  Request request;
  request.verb = Verb::kPairwise;
  BAGC_ASSIGN_OR_RETURN(Response response, Call(request, Response::Kind::kVerdict));
  if (response.consistent) return std::optional<std::pair<size_t, size_t>>();
  if (response.indices.size() != 2) return Status::Internal("bad PAIRWISE verdict");
  return std::optional<std::pair<size_t, size_t>>(
      std::make_pair(response.indices[0], response.indices[1]));
}

Result<bool> BagcdClient::Global() {
  Request request;
  request.verb = Verb::kGlobal;
  BAGC_ASSIGN_OR_RETURN(Response response, Call(request, Response::Kind::kVerdict));
  return response.consistent;
}

Result<std::optional<std::vector<size_t>>> BagcdClient::KWise(size_t k) {
  Request request;
  request.verb = Verb::kKWise;
  request.k = k;
  BAGC_ASSIGN_OR_RETURN(Response response, Call(request, Response::Kind::kVerdict));
  if (response.consistent) return std::optional<std::vector<size_t>>();
  return std::optional<std::vector<size_t>>(std::move(response.indices));
}

Result<std::optional<std::vector<std::string>>> BagcdClient::Witness(
    size_t i, size_t j, bool minimal) {
  Request request;
  request.verb = Verb::kWitness;
  request.bag_i = std::to_string(i);
  request.bag_j = std::to_string(j);
  request.minimal = minimal;
  BAGC_ASSIGN_OR_RETURN(Response response, Call(request, Response::Kind::kWitness));
  if (!response.found) return std::optional<std::vector<std::string>>();
  return std::optional<std::vector<std::string>>(WitnessBagLines(response));
}

namespace {

// One C:/S: block. `start_line` is 1-based, for error reporting.
struct TranscriptBlock {
  std::vector<std::string> lines;
  size_t start_line = 1;
};

std::vector<TranscriptBlock> ExtractBlocks(const std::string& text) {
  std::vector<std::string> lines;
  {
    std::istringstream iss(text);
    std::string line;
    while (std::getline(iss, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      lines.push_back(line);
    }
  }
  std::vector<TranscriptBlock> blocks;
  bool in_fence = false;
  bool saw_fence = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!in_fence && lines[i].rfind("```transcript", 0) == 0) {
      in_fence = true;
      saw_fence = true;
      blocks.push_back({{}, i + 2});
      continue;
    }
    if (in_fence && lines[i].rfind("```", 0) == 0) {
      in_fence = false;
      continue;
    }
    if (in_fence) blocks.back().lines.push_back(lines[i]);
  }
  if (!saw_fence) {
    // A raw transcript file: the whole text is one block.
    blocks.push_back({std::move(lines), 1});
  }
  return blocks;
}

}  // namespace

Result<size_t> ReplayTranscript(const std::string& host, uint16_t port,
                                const std::string& text) {
  std::vector<TranscriptBlock> blocks = ExtractBlocks(text);
  size_t replayed = 0;
  for (const TranscriptBlock& block : blocks) {
    if (block.lines.empty()) continue;
    BAGC_ASSIGN_OR_RETURN(BagcdClient client, BagcdClient::Connect(host, port));
    bool banner_pending = true;
    for (size_t i = 0; i < block.lines.size(); ++i) {
      const std::string& line = block.lines[i];
      std::string at = "transcript line " + std::to_string(block.start_line + i);
      // Payload is everything after the marker, minus one optional
      // separating space ("C: QUIT" and "C:QUIT" both mean QUIT).
      auto payload_of = [](const std::string& marked) {
        std::string payload = marked.substr(2);
        if (!payload.empty() && payload.front() == ' ') payload.erase(0, 1);
        return payload;
      };
      if (line.rfind("C:", 0) == 0) {
        BAGC_RETURN_NOT_OK(client.SendLine(payload_of(line)));
      } else if (line.rfind("S:", 0) == 0) {
        std::string expected = payload_of(line);
        std::string got;
        if (banner_pending) {
          got = client.banner();
          banner_pending = false;
        } else {
          BAGC_ASSIGN_OR_RETURN(got, client.ReadLine());
        }
        if (got != expected) {
          // Unified-diff shape so a failing replay reads at a glance;
          // bagctl --replay prints this verbatim and exits nonzero.
          return Status::Internal(at + ": transcript mismatch\n-" + expected +
                                  "\n+" + got);
        }
      } else if (StripCommentView(line).empty()) {
        continue;  // comment or blank
      } else {
        return Status::InvalidArgument(
            at + ": transcript lines must start with 'C:', 'S:', or '#'");
      }
    }
    ++replayed;
  }
  if (replayed == 0) {
    return Status::InvalidArgument("no transcript content found");
  }
  return replayed;
}

}  // namespace bagc
