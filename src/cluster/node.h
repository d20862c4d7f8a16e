// A simulated workstation.
//
// The paper's testbed is 16 Sun 300 MHz workstations; we model each as a
// single CPU that executes submitted compute requests FIFO at a configured
// flop rate. FIFO sharing is what makes co-located replicas cost what they
// cost in the paper: placing two worker replicas on one node doubles the
// virtual compute time, which is exactly the "factor of two" the evaluation
// expects from replication level 2.
//
// Failure is modelled with an epoch counter: fail() invalidates every
// in-flight compute completion scheduled under the previous epoch, so no
// callback of a dead process ever fires.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/simulation.h"
#include "support/check.h"
#include "support/time.h"

namespace rif::cluster {

using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;

struct NodeConfig {
  /// Sustained floating-point rate. Default approximates a 300 MHz
  /// UltraSPARC running the paper's unoptimized, pointer-heavy C kernels.
  double flops_per_second = 20e6;
  /// Fixed per-compute-dispatch overhead (OS scheduling, cache refill).
  SimTime dispatch_overhead = from_micros(5);
  std::string name;
};

class Node {
 public:
  Node(sim::Simulation& sim, NodeId id, NodeConfig config)
      : sim_(sim), id_(id), config_(std::move(config)) {
    RIF_CHECK(config_.flops_per_second > 0);
  }

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const NodeConfig& config() const { return config_; }
  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Enqueue a compute request of `flops` floating-point operations; `done`
  /// runs when the CPU has executed it. Requests are serialized FIFO. The
  /// completion is silently discarded if the node fails in the meantime.
  void submit_compute(double flops, std::function<void()> done);

  /// Run `fn` on this node after `delay`, unless the node fails first.
  /// Does not occupy the CPU (models timers/interrupt context).
  void run_after(SimTime delay, std::function<void()> fn);

  /// Virtual time the CPU would need for `flops` with an idle queue.
  [[nodiscard]] SimTime compute_time(double flops) const {
    return config_.dispatch_overhead +
           from_seconds(flops / config_.flops_per_second);
  }

  /// Crash the node: all queued compute and timers die with it.
  void fail();

  /// Bring the node back (fresh epoch, empty CPU queue). Processes that
  /// lived here do NOT come back — the scp runtime must re-place them.
  void restore();

  /// Total flops this node has been asked to execute (accounting).
  [[nodiscard]] double flops_charged() const { return flops_charged_; }

 private:
  sim::Simulation& sim_;
  NodeId id_;
  NodeConfig config_;
  bool alive_ = true;
  std::uint64_t epoch_ = 0;
  SimTime busy_until_ = 0;
  double flops_charged_ = 0.0;
};

}  // namespace rif::cluster
