// Real byte-level transport: length-prefixed frames over Unix or TCP
// sockets, a nonblocking poll() event loop, graceful close.
//
// Split into two pieces:
//
//   SocketServer — owns the listening socket and all accepted sessions,
//     runs them on one background poll-loop thread (self-pipe wakeups, no
//     busy wait). Frames are reassembled per session (net/frame.h) and
//     handed to the on_frame callback ON THE POLL THREAD; sends from any
//     thread are queued and flushed when the fd is writable. adopt() lets a
//     test inject one end of a socketpair as a session.
//   SocketClient — blocking counterpart for worker processes: connect,
//     send_frame, read_frame. Single-threaded by design; the worker
//     protocol is strictly reactive.
//
// Frames travel in FrameBytes (support/frame_bytes.h) both ways. The
// std::vector overloads of start(), send() and read_frame() serve callers
// that keep their frames in one; each costs one copy of the frame.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"

namespace rif::net {

/// Opaque id of one accepted connection.
using SessionId = std::int64_t;
inline constexpr SessionId kNoSession = -1;

class SocketServer {
 public:
  using FrameFn = std::function<void(SessionId, FrameBytes)>;
  using VectorFrameFn =
      std::function<void(SessionId, std::vector<std::uint8_t>)>;
  using ClosedFn = std::function<void(SessionId)>;

  SocketServer() = default;
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Bind a TCP listener on 127.0.0.1:`port` (0 = ephemeral; see port()).
  /// Returns false on bind/listen failure.
  [[nodiscard]] bool listen_tcp(std::uint16_t port);
  /// Bind a Unix-domain listener at `path` (unlinked first).
  [[nodiscard]] bool listen_unix(const std::string& path);
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Install callbacks, then start the poll loop. Both run on the loop
  /// thread; reentrant send()/close_session() from them is allowed.
  void start(FrameFn on_frame, ClosedFn on_closed);
  void start(VectorFrameFn on_frame, ClosedFn on_closed);

  /// Queue one frame for a session. Thread-safe. False if unknown session.
  /// The payload is queued as its own buffer and written after its frame
  /// header with one gather write: pass it by move and it is never copied.
  bool send(SessionId session, FrameBytes payload);
  bool send(SessionId session, std::span<const std::uint8_t> payload);

  /// send(), but REFUSE (return false, queue nothing) when the session
  /// already has more than `max_pending_bytes` of unsent outbound bytes.
  /// This is the slow-consumer guard for fan-out paths (the ops plane's
  /// subscribe-metrics push): a subscriber that stops reading loses frames
  /// instead of growing the queue or backpressuring the producer.
  bool send_limited(SessionId session, FrameBytes payload,
                    std::size_t max_pending_bytes);

  /// Adopt an already-connected fd (e.g. one end of a socketpair) as a
  /// session. Thread-safe. Returns its session id.
  SessionId adopt(int fd);

  /// Graceful close of one session: pending outbound frames are flushed,
  /// then the fd is shut down and on_closed fires. Thread-safe.
  void close_session(SessionId session);

  /// Immediate close: unsent outbound bytes are discarded and on_closed
  /// fires without waiting for a drain. close_session() stalls forever on
  /// a peer that stopped reading while our queue is non-empty — this is
  /// the hammer liveness supervision (and kill-fault injection) needs.
  /// Thread-safe.
  void abort_session(SessionId session);

  /// Stop the loop: flush pending writes best-effort, close everything,
  /// join the thread. on_closed fires for every open session.
  void stop();

  [[nodiscard]] int session_count() const;

 private:
  struct OutFrame {
    std::array<std::uint8_t, kFrameHeaderBytes> header;
    FrameBytes payload;
  };
  struct Session {
    int fd = -1;
    FrameAssembler assembler;
    std::deque<OutFrame> outbound;  ///< queued frames, oldest first
    std::size_t sent = 0;           ///< bytes of outbound.front() written
    std::size_t pending = 0;        ///< unsent bytes across outbound
    bool draining = false;          ///< close once outbound empties
    bool abort = false;             ///< close now, discard outbound
  };

  void loop();
  void wake();
  void destroy_session(SessionId id);
  /// Queue under the lock; refuses past `max_pending_bytes`.
  bool enqueue(SessionId session, FrameBytes payload,
               std::size_t max_pending_bytes);
  [[nodiscard]] bool flush(Session& s);

  mutable std::mutex mu_;
  std::map<SessionId, Session> sessions_;
  SessionId next_session_ = 1;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::string unix_path_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  FrameFn on_frame_;
  ClosedFn on_closed_;
};

class SocketClient {
 public:
  SocketClient() = default;
  ~SocketClient();
  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  [[nodiscard]] bool connect_tcp(const std::string& host, std::uint16_t port);
  [[nodiscard]] bool connect_unix(const std::string& path);
  /// Wrap an already-connected fd (socketpair end).
  void adopt(int fd) { fd_ = fd; }

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Send one frame: header and payload in one gather write, straight
  /// from the caller's buffer; handles partial writes. False on error.
  [[nodiscard]] bool send_frame(std::span<const std::uint8_t> payload);

  /// Block until one full frame arrives. False on EOF/error/corruption.
  [[nodiscard]] bool read_frame(FrameBytes& payload);
  [[nodiscard]] bool read_frame(std::vector<std::uint8_t>& payload);

  void close();

 private:
  int fd_ = -1;
  FrameAssembler assembler_;
  std::deque<FrameBytes> ready_;  ///< decoded, undelivered
};

}  // namespace rif::net
