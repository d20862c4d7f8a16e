// Admission scheduling of the fusion service.
//
// The scheduler decides which queued job to admit next against the free
// worker capacity tracked by the LeaseBook AND the free host-memory budget
// (a job "fits" only when both its worker demand and its peak-memory
// demand fit — the memory demand being the working set of the job's
// source: the whole cube when resident, only queue_depth chunk buffers
// when streamed, which is how larger-than-budget scenes stay admissible).
// All three policies backfill — a job too large for the current free set
// never blocks smaller jobs behind it — so the queue keeps draining at
// saturation; they differ in *which* fitting job goes first:
//
//  * kFirstFit       — the first fitting job in priority-then-FIFO order.
//                      Preserves arrival fairness within a priority class.
//  * kSmallestFirst  — the fitting job with the smallest worker demand
//                      (ties broken priority-then-FIFO). Packs more
//                      concurrent jobs onto the cluster, trading fairness
//                      for throughput; big jobs run when the cluster drains.
//  * kAdaptive       — feedback-driven: behaves like kFirstFit while host
//                      memory is plentiful, but once the free budget drops
//                      below half the total it prefers STREAMING jobs
//                      (first-fit among them) over Full-mode ones. A
//                      streamed job's demand is queue_depth chunk buffers,
//                      not a cube, so under pressure it keeps the cluster
//                      busy with a sliver of the budget while Full jobs
//                      wait for it to loosen; with no memory budget
//                      configured there is no pressure signal and kAdaptive
//                      degenerates to kFirstFit. Paired with the service's
//                      counter-offer (over-budget Full submissions carrying
//                      a cube file are converted to Streaming instead of
//                      rejected kOverMemoryBudget — see service.h).
#pragma once

#include <cstdint>
#include <limits>

#include "service/job_queue.h"

namespace rif::service {

/// `free_memory` value meaning "no memory budgeting".
inline constexpr std::uint64_t kUnlimitedMemory =
    std::numeric_limits<std::uint64_t>::max();

enum class AdmissionPolicy { kFirstFit, kSmallestFirst, kAdaptive };

inline const char* to_string(AdmissionPolicy p) {
  switch (p) {
    case AdmissionPolicy::kFirstFit: return "first-fit";
    case AdmissionPolicy::kSmallestFirst: return "smallest-first";
    case AdmissionPolicy::kAdaptive: return "adaptive";
  }
  return "?";
}

class Scheduler {
 public:
  explicit Scheduler(AdmissionPolicy policy) : policy_(policy) {}

  [[nodiscard]] AdmissionPolicy policy() const { return policy_; }

  /// The job to admit with `free_workers` nodes and `free_memory` bytes of
  /// host budget available, or kNoJob when nothing queued fits both.
  /// `total_memory` (the configured budget) gives kAdaptive its pressure
  /// signal — free/total — and is ignored by the static policies.
  /// `admission_pressure` is the scraper-published demand signal (queued
  /// memory demand / free budget, see service.h): kAdaptive also treats
  /// pressure >= 1.0 — more demand waiting than budget left — as pressured
  /// even while free memory is still above the half-way line, so the
  /// streaming preference kicks in before the budget actually drains. The
  /// static policies ignore it. Does not mutate the queue.
  [[nodiscard]] JobId pick(const JobQueue& queue, int free_workers,
                           std::uint64_t free_memory = kUnlimitedMemory,
                           std::uint64_t total_memory = kUnlimitedMemory,
                           double admission_pressure = 0.0) const;

 private:
  AdmissionPolicy policy_;
};

}  // namespace rif::service
