// Deterministic wire-level fault injection for the remote worker plane.
//
// The sim side scripts attacks with cluster::FailureInjector: a node is
// lost at a virtual instant, scripted or drawn from a seeded Poisson
// process. This is the same idea replayed at the REAL frame boundary.
// FaultInjectingTransport interposes between RemoteWorkerPool and its
// SocketServer: every frame crossing a session — inbound (worker -> pool,
// intercepted in the server's on_frame callback) or outbound (pool ->
// worker, intercepted in send()) — ticks a per-session, per-direction
// frame counter, and a script of WireFaultEvents keyed on those counters
// mutates the traffic:
//
//   kDrop         the frame vanishes
//   kDelay        the frame is held until `arg` later frames have crossed
//                 the same lane (re-sends and heartbeats are the clock
//                 that flushes it — a delayed frame on a quiet lane is
//                 indistinguishable from a dropped one, exactly like a
//                 real stalled link)
//   kDuplicate    the frame arrives twice
//   kTruncate     the frame loses its tail (keeps `arg` bytes) — the
//                 framing stays valid, the envelope inside does not, so
//                 this exercises the try_decode trust boundary, not the
//                 FrameAssembler
//   kCorrupt      `arg` (default 1) bytes flip at seeded positions
//   kReorder      the frame swaps with the next one on its lane
//   kKill         the session is closed immediately (crash)
//   kPartitionIn  every inbound frame from this session is dropped from
//                 now on — the pool sees a worker that went silent while
//                 its socket stays open (a hang, not a crash)
//   kPartitionOut the mirror image: the worker stops hearing the pool
//
// Frame counters tick once for every frame OFFERED to a lane (dropped or
// not), so a script is a pure function of the protocol's traffic — earlier
// faults never shift later indices: same seed + same schedule -> same
// faults, every run, which is what makes a chaos soak assertable. Because both directions of every session pass through the
// server-side boundary, wrapping the SocketClient end as well would add
// no fault mode — one interposition point covers the full duplex link.
//
// The FailureEvent vocabulary is shared: wire_script_from_failures() maps
// a sim attack script (virtual time, NodeId) onto wire kills so the same
// experiment runs against the simulated cluster and the real sockets.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/failure_injector.h"
#include "net/socket_transport.h"
#include "runtime/metrics.h"
#include "support/rng.h"

namespace rif::net {

enum class WireFault : std::uint32_t {
  kDrop = 0,
  kDelay,
  kDuplicate,
  kTruncate,
  kCorrupt,
  kReorder,
  kKill,
  kPartitionIn,
  kPartitionOut,
};

[[nodiscard]] const char* fault_name(WireFault fault);

/// Direction is relative to the pool: inbound = worker -> coordinator.
enum class WireDirection : std::uint32_t { kInbound = 0, kOutbound = 1 };

struct WireFaultEvent {
  /// Fires when the lane's 0-based frame counter reaches this value.
  std::uint64_t at_frame = 0;
  /// 0-based session adoption order (SocketServer ids are dense from 1);
  /// -1 matches any session — the event fires once, on whichever lane
  /// reaches `at_frame` first.
  int session_ordinal = -1;
  WireDirection direction = WireDirection::kInbound;
  WireFault fault = WireFault::kDrop;
  /// kDelay/kReorder: frames to hold behind. kTruncate: bytes kept.
  /// kCorrupt: bytes flipped. Ignored otherwise.
  std::uint32_t arg = 0;
};

struct WireFaultPlan {
  std::vector<WireFaultEvent> script;
  /// Seeds the corrupt-byte position stream (per session, forked).
  std::uint64_t seed = 1;

  [[nodiscard]] bool empty() const { return script.empty(); }
};

/// Seeded Poisson fault schedule over frame indices — the wire analogue of
/// FailureInjector::schedule_poisson. For every session ordinal in
/// [0, sessions) and both directions, faults arrive with exponential gaps
/// of the given mean (in frames, floored at 1) until `frame_horizon`,
/// their kinds drawn uniformly from `kinds`. Same rng state -> same script.
[[nodiscard]] std::vector<WireFaultEvent> poisson_wire_script(
    Rng& rng, std::uint64_t frame_horizon, double mean_interarrival_frames,
    const std::vector<WireFault>& kinds, int sessions);

/// Shared attack vocabulary: map a sim failure script onto wire kills.
/// `first_node` is the NodeId leased to session ordinal 0 (the pool's
/// first worker) and `frames_per_second` converts each event's virtual
/// time into the inbound frame count at which the kill fires — the wire
/// plane has no virtual clock, so protocol progress is its time axis.
[[nodiscard]] std::vector<WireFaultEvent> wire_script_from_failures(
    const std::vector<cluster::FailureEvent>& script,
    cluster::NodeId first_node, double frames_per_second);

class FaultInjectingTransport {
 public:
  /// Every injected fault is counted into `registry`, once under its kind
  /// (`<prefix>drop`, `<prefix>delay`, ...) and once in `<prefix>total`.
  FaultInjectingTransport(SocketServer& server, WireFaultPlan plan,
                          runtime::MetricsRegistry& registry,
                          const std::string& prefix);
  FaultInjectingTransport(const FaultInjectingTransport&) = delete;
  FaultInjectingTransport& operator=(const FaultInjectingTransport&) = delete;

  /// Install the pool's callbacks and start the server's poll loop with
  /// this transport interposed on the inbound path.
  void start(SocketServer::FrameFn on_frame, SocketServer::ClosedFn on_closed);

  /// Outbound path: the pool sends through here instead of the server.
  /// A frame no fault touches is forwarded by move, never copied.
  bool send(SessionId session, FrameBytes payload);

 private:
  struct Lane {
    std::uint64_t frames = 0;  ///< frames offered to this lane so far
    bool partitioned = false;
    /// Held (delayed/reordered) frames: release when `frames` passes the
    /// recorded index. Dropped if the session closes first.
    std::deque<std::pair<std::uint64_t, FrameBytes>> held;
  };
  struct SessionState {
    Lane in;
    Lane out;
    Rng rng{1};  ///< corrupt-byte positions, forked from the plan seed
  };

  /// Applies faults for one frame on one lane. Returns the frames to
  /// forward, in order (empty = dropped/held); sets `kill` when the
  /// session must die.
  std::vector<FrameBytes> run_lane(SessionState& st, Lane& lane, int ordinal,
                                   WireDirection dir, FrameBytes payload,
                                   bool& kill);

  void on_frame_in(SessionId session, FrameBytes frame);
  void count(WireFault fault);

  SocketServer& server_;
  WireFaultPlan plan_;
  Rng rng_;
  std::mutex mu_;
  std::map<SessionId, SessionState> sessions_;
  std::vector<bool> fired_;  ///< parallel to plan_.script
  SocketServer::FrameFn on_frame_;
  std::vector<runtime::Counter*> fault_counters_;  ///< indexed by WireFault
  runtime::Counter& total_;
};

}  // namespace rif::net
