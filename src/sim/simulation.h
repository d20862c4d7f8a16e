// Deterministic discrete-event simulation engine.
//
// The whole virtual cluster (CPU queues, network links, failure schedules,
// heartbeat timers) runs on one of these. Events at equal timestamps are
// executed in schedule order (a monotonically increasing sequence number
// breaks ties), so a run is a pure function of its inputs and seeds — the
// property every figure bench in bench/ and every oracle comparison in
// tests/ relies on.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "support/check.h"
#include "support/time.h"

namespace rif::sim {

/// Handle for a scheduled event; usable to cancel it before it fires.
struct EventId {
  std::uint64_t value = 0;
  bool operator==(const EventId&) const = default;
};

class Simulation {
 public:
  using Callback = std::function<void()>;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `cb` at absolute virtual time `t` (>= now).
  EventId schedule_at(SimTime t, Callback cb);

  /// Schedule `cb` after `delay` nanoseconds of virtual time (>= 0).
  EventId schedule_after(SimTime delay, Callback cb) {
    RIF_CHECK_MSG(delay >= 0, "negative delay");
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancel a pending event. Cancelling an already-fired or unknown event is
  /// a no-op, which keeps timer bookkeeping simple for callers.
  void cancel(EventId id);

  /// Execute the single next event. Returns false if the queue is empty.
  bool step();

  /// Run until the event queue drains.
  void run();

  /// Run until virtual time `t` (events at exactly `t` are executed).
  /// Returns true if the queue drained before `t`.
  bool run_until(SimTime t);

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::size_t events_pending() const { return pending_.size(); }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Pops cancelled entries off the head of the queue.
  void skip_cancelled();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_set<std::uint64_t> pending_;    ///< live (un-fired) seqs
  std::unordered_set<std::uint64_t> cancelled_;  ///< subset of pending_
};

}  // namespace rif::sim
