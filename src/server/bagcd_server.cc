#include "server/bagcd_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

#include "server/protocol.h"
#include "server/session.h"

namespace bagc {

namespace {

// Writes the whole buffer, riding out short writes and EINTR. A false
// return means the peer is gone; the caller drops the connection.
// MSG_NOSIGNAL: a client that disconnects without reading its responses
// must surface as EPIPE here, not raise SIGPIPE and kill the daemon for
// every other client.
bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<BagcdServer>> BagcdServer::Start(
    const BagcdServerOptions& options) {
  std::unique_ptr<BagcdServer> server(new BagcdServer());
  server->listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (server->listen_fd_ < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(server->listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address '" + options.host + "'");
  }
  if (::bind(server->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::Internal("bind(" + options.host + ":" +
                            std::to_string(options.port) +
                            "): " + std::strerror(errno));
  }
  if (::listen(server->listen_fd_, 64) != 0) {
    return Status::Internal(std::string("listen(): ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(server->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
    return Status::Internal(std::string("getsockname(): ") + std::strerror(errno));
  }
  server->port_ = ntohs(addr.sin_port);
  if (options.query_threads > 0) {
    server->query_pool_ = std::make_unique<ThreadPool>(options.query_threads);
  }
  server->registry_ = std::make_unique<CollectionRegistry>(options.registry);
  // The accept loop gets its own copy of the fd: Shutdown() writes
  // listen_fd_ (under mu_) while this thread runs, and an unsynchronized
  // read of the member would be a data race. accept() on the copied fd
  // fails as soon as Shutdown() shuts the listener down.
  server->accept_thread_ = std::thread(
      [raw = server.get(), fd = server->listen_fd_] { raw->AcceptLoop(fd); });
  return server;
}

BagcdServer::~BagcdServer() { Shutdown(); }

void BagcdServer::AcceptLoop(int listen_fd) {
  while (true) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed: we are shutting down
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_requested_) {
      ::close(fd);
      return;
    }
    // Reap connections that already finished, so a long-lived daemon does
    // not accumulate joined-out thread handles; stragglers are joined at
    // Shutdown() either way.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done) {
        (*it)->thread.join();
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    conns_.push_back(std::make_unique<Conn>());
    Conn* conn = conns_.back().get();
    conn->fd = fd;
    conn->thread = std::thread([this, conn] { ServeConnection(conn); });
  }
}

void BagcdServer::ServeConnection(Conn* conn) {
  std::optional<ServerSession> session(std::in_place, registry_.get(),
                                       query_pool_.get());
  int fd = conn->fd;
  char chunk[4096];
  bool open = WriteAll(fd, std::string(kWireBanner) + "\n");
  while (open) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed, or Shutdown() shut the socket down
    // The session does all framing (text lines or binary frames, per its
    // mode) and enforces the line/frame-size ceilings; the transport just
    // moves bytes both ways.
    std::string responses;
    ServerSession::Outcome outcome =
        session->HandleData(std::string_view(chunk, static_cast<size_t>(n)),
                            &responses);
    // A session that is done ends (and leaves STATS `sessions`) before
    // its last reply goes out, so a client that has read QUIT's OK BYE
    // and reconnects never sees it counted.
    if (outcome != ServerSession::Outcome::kContinue) session.reset();
    bool wrote = responses.empty() || WriteAll(fd, responses);
    // Honor the outcome BEFORE reacting to a failed write: the session
    // already committed to it — a SHUTDOWN from a client that closed
    // without reading its OK BYE must still stop the server.
    if (outcome == ServerSession::Outcome::kShutdownServer) {
      RequestShutdown();
      break;
    }
    if (outcome == ServerSession::Outcome::kCloseConnection || !wrote) break;
  }
  // Likewise on a hang-up: the session ends before the socket goes down.
  session.reset();
  // Mark done BEFORE closing: Shutdown() only ::shutdown()s fds of
  // connections not yet done, so it can never touch a descriptor this
  // thread has already closed (and the kernel may have recycled).
  {
    std::lock_guard<std::mutex> lock(mu_);
    conn->done = true;
  }
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
}

void BagcdServer::Wait() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
  }
  Shutdown();
}

void BagcdServer::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void BagcdServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_requested_ = true;
    if (stopped_) return;
    stopped_ = true;
    // Unblock accept() and every in-flight read(); the threads then exit
    // on their own and we join them below. Connections close their own
    // fds, so we only shut the sockets down here.
    if (listen_fd_ >= 0) {
      ::shutdown(listen_fd_, SHUT_RDWR);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    for (const std::unique_ptr<Conn>& conn : conns_) {
      if (!conn->done) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  shutdown_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop has exited, so conns_ is final and mu_ is free for
  // the connection threads' final done-marking while we join them.
  for (const std::unique_ptr<Conn>& conn : conns_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  conns_.clear();
}

}  // namespace bagc
