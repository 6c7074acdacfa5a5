#include "netio/ingest_server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "obs/metrics.h"

namespace dcs {
namespace {

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError("fcntl: " + ErrnoString(errno));
  }
  return Status::Ok();
}

// Fills `addr` from `path`, rejecting paths that do not fit sun_path.
Status FillUdsAddr(const std::string& path, sockaddr_un* addr) {
  addr->sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr->sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return Status::Ok();
}

/// What a probe-connect against an existing socket file found.
enum class UdsProbe { kAbsent, kStale, kLive, kError };

// Probes `path` before binding over it: a live daemon answers the connect
// (the probe connection is closed immediately — the daemon just sees a
// no-byte EOF), a stale file refuses it, a missing file is free.
UdsProbe ProbeUds(const sockaddr_un& addr, int* probe_errno) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *probe_errno = errno;
    return UdsProbe::kError;
  }
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr));
  *probe_errno = rc == 0 ? 0 : errno;
  ::close(fd);
  if (rc == 0) return UdsProbe::kLive;
  if (*probe_errno == ECONNREFUSED) return UdsProbe::kStale;
  if (*probe_errno == ENOENT) return UdsProbe::kAbsent;
  return UdsProbe::kError;
}

}  // namespace

IngestServer::IngestServer(const IngestServerOptions& options,
                           FrameDispatcher* dispatcher)
    : options_(options), dispatcher_(dispatcher) {
  DCS_CHECK(dispatcher_ != nullptr);
  DCS_CHECK(options_.read_chunk_bytes > 0);
  DCS_CHECK(options_.accept_backoff_rounds > 0);
}

IngestServer::~IngestServer() {
  MutexLock lock(&mu_);
  CloseAll();
}

Status IngestServer::ListenTcp(std::uint16_t port) {
  MutexLock lock(&mu_);
  DCS_CHECK(tcp_listen_fd_ < 0) << "ListenTcp called twice";
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("socket: " + ErrnoString(errno));
  }
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("bind/listen: " + ErrnoString(err));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("getsockname: " + ErrnoString(err));
  }
  const Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    ::close(fd);
    return nb;
  }
  tcp_listen_fd_ = fd;
  tcp_port_ = ntohs(bound.sin_port);
  return Status::Ok();
}

Status IngestServer::ListenUds(const std::string& path) {
  MutexLock lock(&mu_);
  DCS_CHECK(uds_listen_fd_ < 0) << "ListenUds called twice";
  sockaddr_un addr{};
  DCS_RETURN_IF_ERROR(FillUdsAddr(path, &addr));
  // Never blindly unlink: the file may be a *live* daemon's socket, and
  // destroying it would silently orphan that daemon (its clients connect
  // into nothing while it keeps serving a path that no longer exists).
  // Probe-connect first; only a refused connect proves the file stale.
  int probe_errno = 0;
  switch (ProbeUds(addr, &probe_errno)) {
    case UdsProbe::kAbsent:
      break;  // Nothing at the path; bind will create it.
    case UdsProbe::kStale:
      ::unlink(path.c_str());  // Dead owner's leftover; safe to reclaim.
      break;
    case UdsProbe::kLive:
      return Status::FailedPrecondition(
          "unix socket " + path +
          " is in use by a live server (connect succeeded)");
    case UdsProbe::kError:
      return Status::IoError("probing " + path + ": " +
                             ErrnoString(probe_errno));
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("socket: " + ErrnoString(errno));
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("bind/listen: " + ErrnoString(err));
  }
  const Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    ::close(fd);
    return nb;
  }
  uds_listen_fd_ = fd;
  uds_path_ = path;
  return Status::Ok();
}

bool IngestServer::AcceptPending(int listen_fd) {
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // Drained.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // EMFILE/ENFILE and friends: the listener stays readable, so without
      // backoff every poll round would burn a wakeup retrying. The caller
      // deafens the listeners for an interval; count the failure here.
      ++stats_.accept_failures;
      ObsCounter("netio.server.accept_failures").Increment();
      DCS_LOG(Warning) << "accept: " << ErrnoString(errno);
      return false;
    }
    if (connections_.size() >= options_.max_connections) {
      ::close(fd);
      ++stats_.connections_refused;
      ObsCounter("netio.server.connections_refused").Increment();
      continue;
    }
    // Non-blocking so a spurious POLLIN can never park a drain task in
    // read() and stall the round (and RequestStop).
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      ++stats_.accept_failures;
      ObsCounter("netio.server.accept_failures").Increment();
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->read_buf.resize(options_.read_chunk_bytes);
    connections_.push_back(std::move(conn));
    ++stats_.connections_accepted;
    // A successful accept proves the resource squeeze is over.
    accept_backoff_next_ = options_.accept_backoff_rounds;
    ObsCounter("netio.server.connections").Increment();
  }
}

void IngestServer::DrainConnection(Connection* conn) const {
  conn->bytes_read = 0;
  const ssize_t n =
      ::read(conn->fd, conn->read_buf.data(), options_.read_chunk_bytes);
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
    conn->io_error = true;
    return;
  }
  if (n == 0) {  // EOF: the offer stage flushes the parser tail.
    conn->saw_eof = true;
    return;
  }
  conn->bytes_read = static_cast<std::size_t>(n);
  conn->parser.Consume(conn->read_buf.data(), conn->bytes_read, &conn->events);
}

bool IngestServer::OfferRound(Connection* conn) {
  if (conn->bytes_read > 0) {
    stats_.bytes_received += conn->bytes_read;
    ObsCounter("netio.server.bytes_rx").Add(conn->bytes_read);
  }
  if (!conn->events.empty()) {
    for (const FrameEvent& event : conn->events) {
      if (event.kind == FrameEvent::Kind::kReject) ++conn->rejects;
    }
    dispatcher_->HandleEvents(conn->events);
    conn->events.clear();
  }
  if (conn->io_error || conn->saw_eof) {
    CloseConnection(conn);
    return false;
  }
  if (conn->rejects > options_.max_rejects_per_connection) {
    ++stats_.penalty_closes;
    ObsCounter("netio.server.penalty_closes").Increment();
    CloseConnection(conn);
    return false;
  }
  return true;
}

void IngestServer::CloseConnection(Connection* conn) {
  if (conn->fd < 0) return;
  std::vector<FrameEvent> tail;
  conn->parser.Finish(&tail);
  dispatcher_->HandleEvents(tail);
  ::close(conn->fd);
  conn->fd = -1;
  ++stats_.connections_closed;
  ObsCounter("netio.server.connections_closed").Increment();
}

void IngestServer::CloseAll() {
  for (auto& conn : connections_) {
    CloseConnection(conn.get());
  }
  connections_.clear();
  if (tcp_listen_fd_ >= 0) {
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
  if (uds_listen_fd_ >= 0) {
    ::close(uds_listen_fd_);
    uds_listen_fd_ = -1;
    ::unlink(uds_path_.c_str());
  }
}

Status IngestServer::Serve() {
  {
    MutexLock lock(&mu_);
    if (tcp_listen_fd_ < 0 && uds_listen_fd_ < 0) {
      return Status::FailedPrecondition("no listener configured");
    }
    accept_backoff_next_ = options_.accept_backoff_rounds;
  }
  while (!stop_.load(std::memory_order_acquire)) {
    // Snapshot the fd set under the lock, then poll without it: poll() is
    // where this thread parks (up to poll_timeout_ms), and concurrent
    // stats() readers must not be shut out for that long. Only this thread
    // mutates the connection table, so the snapshot stays valid across the
    // unlocked poll.
    std::vector<pollfd> fds;
    int tcp_fd = -1;
    int uds_fd = -1;
    std::size_t first_conn = 0;
    std::size_t polled = 0;
    {
      MutexLock lock(&mu_);
      // A backoff interval keeps the listeners out of the poll set — an
      // unacceptable connection cannot wake us, so the EMFILE retry costs
      // one interval, not one wakeup per round.
      if (accept_deaf_rounds_ > 0) {
        --accept_deaf_rounds_;
      } else {
        tcp_fd = tcp_listen_fd_;
        uds_fd = uds_listen_fd_;
      }
      fds.reserve(2 + connections_.size());
      if (tcp_fd >= 0) fds.push_back(pollfd{tcp_fd, POLLIN, 0});
      if (uds_fd >= 0) fds.push_back(pollfd{uds_fd, POLLIN, 0});
      first_conn = fds.size();
      polled = connections_.size();
      for (const auto& conn : connections_) {
        fds.push_back(pollfd{conn->fd, POLLIN, 0});
      }
    }
    int ready = 0;
    if (fds.empty()) {
      // Every listener deafened and no connections: sleep out one round.
      pollfd none{-1, 0, 0};
      ready = ::poll(&none, 1, options_.poll_timeout_ms);
    } else {
      ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                     options_.poll_timeout_ms);
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      MutexLock lock(&mu_);
      CloseAll();
      return Status::IoError("poll: " + ErrnoString(err));
    }
    if (ready == 0) {  // Timeout: run the hook, re-check the stop flag.
      if (options_.after_round && !options_.after_round()) break;
      continue;
    }
    {
      MutexLock lock(&mu_);
      std::size_t at = 0;
      bool accept_ok = true;
      if (tcp_fd >= 0) {
        if ((fds[at].revents & POLLIN) != 0) {
          accept_ok = AcceptPending(tcp_fd) && accept_ok;
        }
        ++at;
      }
      if (uds_fd >= 0) {
        if ((fds[at].revents & POLLIN) != 0) {
          accept_ok = AcceptPending(uds_fd) && accept_ok;
        }
        ++at;
      }
      if (!accept_ok) {
        // Resource failure: deafen the listeners for the current interval
        // and double the next one (capped). Established connections keep
        // being served throughout — only *new* peers wait.
        accept_deaf_rounds_ = accept_backoff_next_;
        accept_backoff_next_ = std::min(accept_backoff_next_ * 2,
                                        options_.accept_backoff_max_rounds);
        ++stats_.accept_backoffs;
        ObsCounter("netio.server.accept_backoff").Increment();
      }
      // Stage 1 — drain: collect the readable connections (bounded by the
      // pre-poll count: AcceptPending may have grown connections_ past
      // fds, and the fresh sockets have no revents yet anyway) and fan
      // their reads + frame parsing out across the pool, one shard per
      // connection. Each connection owns its buffer and parser, so the
      // shards share nothing; the pool's completion latch hands their
      // results back to this thread.
      std::vector<Connection*> readable;
      readable.reserve(polled);
      for (std::size_t i = 0; i < polled; ++i) {
        const short revents = fds[first_conn + i].revents;
        if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        readable.push_back(connections_[i].get());
      }
      RunShards(options_.pool, MakeShards(readable.size(), readable.size()),
                [this, &readable](const ShardRange& shard) {
                  DrainConnection(readable[shard.index]);
                });
      // Stage 2 — ordered offer: always on this thread, always in
      // connection order. One funnel into the dispatcher/ring is what
      // keeps the report stream identical at any worker count.
      for (Connection* conn : readable) {
        (void)OfferRound(conn);
      }
      // Compact closed connections.
      std::size_t kept = 0;
      for (auto& conn : connections_) {
        if (conn->fd >= 0) connections_[kept++] = std::move(conn);
      }
      connections_.resize(kept);
    }
    // The hook runs unlocked: it drives the dispatcher/ring (safe — they
    // are only ever touched from this thread) and must be free to call
    // back into stats().
    if (options_.after_round && !options_.after_round()) break;
  }
  MutexLock lock(&mu_);
  CloseAll();
  return Status::Ok();
}

}  // namespace dcs
