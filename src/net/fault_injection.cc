#include "net/fault_injection.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/span_tracer.h"
#include "support/log.h"
#include "support/time.h"

namespace rif::net {

namespace {

constexpr int kFaultKinds = 9;

/// Trace-instant names, indexed by WireFault (static storage: the tracer
/// keeps the pointer).
constexpr const char* kInstantNames[kFaultKinds] = {
    "fault.drop",      "fault.delay",   "fault.duplicate",
    "fault.truncate",  "fault.corrupt", "fault.reorder",
    "fault.kill",      "fault.partition_in", "fault.partition_out"};

constexpr const char* kFaultNames[kFaultKinds] = {
    "drop",     "delay",   "duplicate",    "truncate",     "corrupt",
    "reorder",  "kill",    "partition_in", "partition_out"};

}  // namespace

const char* fault_name(WireFault fault) {
  return kFaultNames[static_cast<std::uint32_t>(fault)];
}

std::vector<WireFaultEvent> poisson_wire_script(
    Rng& rng, std::uint64_t frame_horizon, double mean_interarrival_frames,
    const std::vector<WireFault>& kinds, int sessions) {
  std::vector<WireFaultEvent> script;
  if (kinds.empty() || mean_interarrival_frames <= 0.0) return script;
  for (int ordinal = 0; ordinal < sessions; ++ordinal) {
    for (const WireDirection dir :
         {WireDirection::kInbound, WireDirection::kOutbound}) {
      double at = 0.0;
      for (;;) {
        // Same exponential-gap construction as FailureInjector, floored at
        // one frame so two faults never collapse onto the same index.
        const double gap =
            -std::log(1.0 - rng.uniform()) * mean_interarrival_frames;
        at += std::max(gap, 1.0);
        if (at >= static_cast<double>(frame_horizon)) break;
        WireFaultEvent e;
        e.at_frame = static_cast<std::uint64_t>(at);
        e.session_ordinal = ordinal;
        e.direction = dir;
        e.fault = kinds[rng.uniform_u64(kinds.size())];
        switch (e.fault) {
          case WireFault::kDelay:
            e.arg = 1 + static_cast<std::uint32_t>(rng.uniform_u64(3));
            break;
          case WireFault::kReorder:
            e.arg = 1;
            break;
          case WireFault::kTruncate:
            e.arg = static_cast<std::uint32_t>(rng.uniform_u64(16));
            break;
          case WireFault::kCorrupt:
            e.arg = 1 + static_cast<std::uint32_t>(rng.uniform_u64(4));
            break;
          default:
            break;
        }
        script.push_back(e);
      }
    }
  }
  return script;
}

std::vector<WireFaultEvent> wire_script_from_failures(
    const std::vector<cluster::FailureEvent>& script,
    cluster::NodeId first_node, double frames_per_second) {
  std::vector<WireFaultEvent> wire;
  wire.reserve(script.size());
  for (const cluster::FailureEvent& f : script) {
    if (f.node < first_node) continue;  // host node: not on the wire plane
    WireFaultEvent e;
    e.session_ordinal = f.node - first_node;
    e.direction = WireDirection::kInbound;
    e.fault = WireFault::kKill;
    e.at_frame = static_cast<std::uint64_t>(
        std::max(0.0, to_seconds(f.time) * frames_per_second));
    wire.push_back(e);
  }
  return wire;
}

FaultInjectingTransport::FaultInjectingTransport(
    SocketServer& server, WireFaultPlan plan,
    runtime::MetricsRegistry& registry, const std::string& prefix)
    : server_(server),
      plan_(std::move(plan)),
      rng_(plan_.seed),
      total_(registry.counter(prefix + "total")) {
  for (const char* name : kFaultNames) {
    fault_counters_.push_back(&registry.counter(prefix + name));
  }
}

void FaultInjectingTransport::count(WireFault fault) {
  const auto kind = static_cast<std::uint32_t>(fault);
  obs::SpanTracer::instance().instant(kInstantNames[kind]);
  fault_counters_[kind]->add();
  total_.add();
}

void FaultInjectingTransport::start(SocketServer::FrameFn on_frame,
                                    SocketServer::ClosedFn on_closed) {
  on_frame_ = std::move(on_frame);
  fired_.assign(plan_.script.size(), false);
  server_.start(
      [this](SessionId s, FrameBytes f) {
        on_frame_in(s, std::move(f));
      },
      [this, closed = std::move(on_closed)](SessionId s) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          sessions_.erase(s);  // held frames die with the session
        }
        if (closed) closed(s);
      });
}

std::vector<FrameBytes> FaultInjectingTransport::run_lane(
    SessionState& st, Lane& lane, int ordinal, WireDirection dir,
    FrameBytes payload, bool& kill) {
  std::vector<FrameBytes> forward;
  const std::uint64_t idx = lane.frames++;

  if (lane.partitioned) {
    count(dir == WireDirection::kInbound ? WireFault::kPartitionIn
                                         : WireFault::kPartitionOut);
    return forward;  // black hole; counter still advances (frames crossed)
  }

  // Collect this frame's faults from the script. More than one event can
  // land on the same index; they apply in script order.
  bool drop = false;
  bool duplicate = false;
  std::uint64_t hold_until = 0;  // 0 = not held
  for (std::size_t i = 0; i < plan_.script.size(); ++i) {
    if (fired_[i]) continue;
    const WireFaultEvent& e = plan_.script[i];
    if (e.direction != dir || e.at_frame != idx) continue;
    if (e.session_ordinal >= 0 && e.session_ordinal != ordinal) continue;
    fired_[i] = true;
    switch (e.fault) {
      case WireFault::kDrop:
        drop = true;
        count(e.fault);
        break;
      case WireFault::kDelay:
      case WireFault::kReorder:
        hold_until = idx + std::max<std::uint32_t>(e.arg, 1);
        count(e.fault);
        break;
      case WireFault::kDuplicate:
        duplicate = true;
        count(e.fault);
        break;
      case WireFault::kTruncate: {
        const std::size_t keep = payload.empty()
                                     ? 0
                                     : std::min<std::size_t>(
                                           e.arg, payload.size() - 1);
        payload.resize(keep);
        count(e.fault);
        break;
      }
      case WireFault::kCorrupt: {
        if (!payload.empty()) {
          const std::uint32_t flips = std::max<std::uint32_t>(e.arg, 1);
          for (std::uint32_t k = 0; k < flips; ++k) {
            payload[st.rng.uniform_u64(payload.size())] ^= 0xFF;
          }
        }
        count(e.fault);
        break;
      }
      case WireFault::kKill:
        kill = true;
        count(e.fault);
        break;
      case WireFault::kPartitionIn:
      case WireFault::kPartitionOut:
        // A partition event names its own lane; applying it here keeps a
        // single event from having to match both directions.
        lane.partitioned = true;
        drop = true;
        count(e.fault);
        break;
    }
  }

  if (!drop && !lane.partitioned) {
    if (hold_until > 0) {
      lane.held.emplace_back(hold_until, std::move(payload));
    } else {
      if (duplicate) forward.push_back(payload);
      forward.push_back(std::move(payload));
    }
  }
  // Later frames are the clock that releases held ones.
  while (!lane.held.empty() && lane.held.front().first <= idx) {
    forward.push_back(std::move(lane.held.front().second));
    lane.held.pop_front();
  }
  return forward;
}

void FaultInjectingTransport::on_frame_in(SessionId session,
                                          FrameBytes frame) {
  bool kill = false;
  std::vector<FrameBytes> forward;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SessionState& st = sessions_[session];
    if (st.in.frames == 0 && st.out.frames == 0) {
      st.rng = rng_.fork(static_cast<std::uint64_t>(session));
    }
    forward = run_lane(st, st.in, static_cast<int>(session - 1),
                       WireDirection::kInbound, std::move(frame), kill);
  }
  if (kill) {
    RIF_LOG_WARN("faults", "killing session " << session);
    server_.abort_session(session);
    return;
  }
  for (auto& f : forward) {
    if (on_frame_) on_frame_(session, std::move(f));
  }
}

bool FaultInjectingTransport::send(SessionId session, FrameBytes payload) {
  bool kill = false;
  std::vector<FrameBytes> forward;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SessionState& st = sessions_[session];
    if (st.in.frames == 0 && st.out.frames == 0) {
      st.rng = rng_.fork(static_cast<std::uint64_t>(session));
    }
    forward = run_lane(st, st.out, static_cast<int>(session - 1),
                       WireDirection::kOutbound, std::move(payload), kill);
  }
  if (kill) {
    RIF_LOG_WARN("faults", "killing session " << session);
    server_.abort_session(session);
    return true;  // the frame "was sent" as far as the caller knows
  }
  bool ok = true;
  for (auto& f : forward) {
    ok = server_.send(session, std::move(f)) && ok;
  }
  return ok;
}

}  // namespace rif::net
