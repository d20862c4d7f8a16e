#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <utility>

#include "support/check.h"
#include "support/log.h"

namespace rif::net {

namespace {

bool set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Gather entries per sendmsg(): up to 32 queued frames, header + payload.
constexpr std::size_t kMaxIov = 64;

/// Appends the unwritten part of one frame — header, then payload — to
/// `iov`, skipping its first `skip` bytes. Returns the entries added.
std::size_t add_frame_iov(iovec* iov, const std::uint8_t* header,
                          std::span<const std::uint8_t> payload,
                          std::size_t skip) {
  std::size_t n = 0;
  if (skip < kFrameHeaderBytes) {
    iov[n++] = {const_cast<std::uint8_t*>(header) + skip,
                kFrameHeaderBytes - skip};
    skip = 0;
  } else {
    skip -= kFrameHeaderBytes;
  }
  if (skip < payload.size()) {
    iov[n++] = {const_cast<std::uint8_t*>(payload.data()) + skip,
                payload.size() - skip};
  }
  return n;
}

ssize_t send_iov(int fd, iovec* iov, std::size_t count) {
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = count;
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

}  // namespace

// ---------------------------------------------------------------------------
// SocketServer
// ---------------------------------------------------------------------------

SocketServer::~SocketServer() { stop(); }

bool SocketServer::listen_tcp(std::uint16_t port) {
  RIF_CHECK(listen_fd_ < 0);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  listen_fd_ = fd;
  return set_nonblocking(fd);
}

bool SocketServer::listen_unix(const std::string& path) {
  RIF_CHECK(listen_fd_ < 0);
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) return false;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return false;
  }
  unix_path_ = path;
  listen_fd_ = fd;
  return set_nonblocking(fd);
}

void SocketServer::start(FrameFn on_frame, ClosedFn on_closed) {
  RIF_CHECK_MSG(!running_.load(), "server already started");
  on_frame_ = std::move(on_frame);
  on_closed_ = std::move(on_closed);
  RIF_CHECK(::pipe(wake_pipe_) == 0);
  RIF_CHECK(set_nonblocking(wake_pipe_[0]) && set_nonblocking(wake_pipe_[1]));
  running_.store(true);
  thread_ = std::thread([this] { loop(); });
}

void SocketServer::start(VectorFrameFn on_frame, ClosedFn on_closed) {
  start(
      [on_frame = std::move(on_frame)](SessionId s, FrameBytes f) {
        on_frame(s, std::vector<std::uint8_t>(f.begin(), f.end()));
      },
      std::move(on_closed));
}

void SocketServer::wake() {
  if (wake_pipe_[1] >= 0) {
    const char b = 1;
    [[maybe_unused]] const auto n = ::write(wake_pipe_[1], &b, 1);
  }
}

bool SocketServer::enqueue(SessionId session, FrameBytes payload,
                           std::size_t max_pending_bytes) {
  OutFrame frame{frame_header(payload.size()), std::move(payload)};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session);
    if (it == sessions_.end() || it->second.draining) return false;
    Session& s = it->second;
    if (s.pending > max_pending_bytes) {
      return false;  // consumer is behind: drop, never queue further
    }
    s.pending += framed_size(frame.payload.size());
    s.outbound.push_back(std::move(frame));
  }
  wake();
  return true;
}

bool SocketServer::send(SessionId session, FrameBytes payload) {
  return enqueue(session, std::move(payload),
                 std::numeric_limits<std::size_t>::max());
}

bool SocketServer::send(SessionId session,
                        std::span<const std::uint8_t> payload) {
  return send(session, FrameBytes(payload.begin(), payload.end()));
}

bool SocketServer::send_limited(SessionId session, FrameBytes payload,
                                std::size_t max_pending_bytes) {
  return enqueue(session, std::move(payload), max_pending_bytes);
}

SessionId SocketServer::adopt(int fd) {
  RIF_CHECK(set_nonblocking(fd));
  SessionId id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_session_++;
    sessions_[id].fd = fd;
  }
  wake();
  return id;
}

void SocketServer::close_session(SessionId session) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session);
    if (it == sessions_.end()) return;
    it->second.draining = true;
  }
  wake();
}

void SocketServer::abort_session(SessionId session) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session);
    if (it == sessions_.end()) return;
    it->second.draining = true;
    it->second.abort = true;
  }
  wake();
}

int SocketServer::session_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(sessions_.size());
}

bool SocketServer::flush(Session& s) {
  while (!s.outbound.empty()) {
    iovec iov[kMaxIov];
    std::size_t count = 0;
    std::size_t skip = s.sent;
    for (auto it = s.outbound.begin();
         it != s.outbound.end() && count + 2 <= kMaxIov; ++it) {
      count += add_frame_iov(iov + count, it->header.data(), it->payload, skip);
      skip = 0;
    }
    const auto n = send_iov(s.fd, iov, count);
    if (n > 0) {
      // Retire every frame the write finished; a partial one stays at the
      // front with `sent` marking how far it got.
      s.pending -= static_cast<std::size_t>(n);
      s.sent += static_cast<std::size_t>(n);
      while (!s.outbound.empty() &&
             s.sent >= framed_size(s.outbound.front().payload.size())) {
        s.sent -= framed_size(s.outbound.front().payload.size());
        s.outbound.pop_front();
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer gone
  }
  return true;
}

void SocketServer::destroy_session(SessionId id) {
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    fd = it->second.fd;
    sessions_.erase(it);
  }
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  if (on_closed_) on_closed_(id);
}

void SocketServer::loop() {
  while (running_.load()) {
    // Snapshot the session set and its write-interest under the lock, then
    // poll without it so senders are never blocked behind a poll().
    std::vector<pollfd> fds;
    std::vector<SessionId> ids;
    std::vector<SessionId> dead;
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    if (listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [id, s] : sessions_) {
        const bool pending = !s.outbound.empty();
        if (s.abort || (s.draining && !pending)) {
          dead.push_back(id);
          continue;
        }
        short events = POLLIN;
        if (pending) events |= POLLOUT;
        ids.push_back(id);
        fds.push_back({s.fd, events, 0});
      }
    }
    for (const SessionId id : dead) destroy_session(id);

    const int ready = ::poll(fds.data(), fds.size(), 100);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;

    std::size_t fi = 0;
    if (fds[fi].revents & POLLIN) {  // wake pipe
      char drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }
    ++fi;
    if (listen_fd_ >= 0) {
      if (fds[fi].revents & POLLIN) {
        for (;;) {
          const int cfd = ::accept(listen_fd_, nullptr, nullptr);
          if (cfd < 0) break;
          adopt(cfd);
        }
      }
      ++fi;
    }

    for (std::size_t i = 0; i < ids.size(); ++i) {
      const SessionId id = ids[i];
      const pollfd& p = fds[fi + i];
      bool close_now = false;
      if (p.revents & POLLOUT) {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = sessions_.find(id);
        if (it != sessions_.end() && !flush(it->second)) close_now = true;
      }
      if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
        const FrameAssembler::Sink deliver =
            [this, id](FrameBytes payload) {
              if (on_frame_) on_frame_(id, std::move(payload));
            };
        for (;;) {
          FrameAssembler* assembler = nullptr;
          {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = sessions_.find(id);
            if (it == sessions_.end()) break;
            assembler = &it->second.assembler;
          }
          // Read straight into the assembler: a large payload lands in its
          // final buffer. Reassemble and dispatch WITHOUT the lock: the
          // callback may reentrantly send() on this or another session.
          const std::span<std::uint8_t> window = assembler->window();
          const auto n = ::recv(p.fd, window.data(), window.size(), 0);
          if (n > 0) {
            if (!assembler->commit(static_cast<std::size_t>(n), deliver)) {
              RIF_LOG_WARN("net", "session " << id
                                             << ": corrupt frame, closing");
              close_now = true;
              break;
            }
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          close_now = true;  // EOF or hard error
          break;
        }
      }
      if (close_now) destroy_session(id);
    }
  }
}

void SocketServer::stop() {
  if (!running_.exchange(false)) {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return;
  }
  wake();
  if (thread_.joinable()) thread_.join();
  // Best-effort flush of whatever is still queued, then close everything:
  // a session whose flush fails is destroyed below all the same.
  std::vector<SessionId> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, s] : sessions_) {
      (void)flush(s);
      ids.push_back(id);
    }
  }
  for (const SessionId id : ids) destroy_session(id);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

// ---------------------------------------------------------------------------
// SocketClient
// ---------------------------------------------------------------------------

SocketClient::~SocketClient() { close(); }

bool SocketClient::connect_tcp(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  return true;
}

bool SocketClient::connect_unix(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) return false;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  return true;
}

bool SocketClient::send_frame(std::span<const std::uint8_t> payload) {
  if (fd_ < 0) return false;
  const auto header = frame_header(payload.size());
  const std::size_t total = framed_size(payload.size());
  std::size_t sent = 0;
  while (sent < total) {
    iovec iov[2];
    const auto n =
        send_iov(fd_, iov, add_frame_iov(iov, header.data(), payload, sent));
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool SocketClient::read_frame(FrameBytes& payload) {
  while (ready_.empty()) {
    if (fd_ < 0) return false;
    const std::span<std::uint8_t> window = assembler_.window();
    const auto n = ::recv(fd_, window.data(), window.size(), 0);
    if (n > 0) {
      if (!assembler_.commit(static_cast<std::size_t>(n),
                             [this](FrameBytes pl) {
                               ready_.push_back(std::move(pl));
                             })) {
        return false;  // corrupt stream
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF or error
  }
  payload = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

bool SocketClient::read_frame(std::vector<std::uint8_t>& payload) {
  FrameBytes frame;
  if (!read_frame(frame)) return false;
  payload.assign(frame.begin(), frame.end());
  return true;
}

void SocketClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace rif::net
