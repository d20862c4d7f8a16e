// Priority job queue of the fusion service: strict priority classes with
// FIFO order inside each class. The queue only holds ids plus the bits the
// scheduler ranks on (priority, arrival sequence, worker demand); job bodies
// stay with the service.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "service/job.h"

namespace rif::service {

class JobQueue {
 public:
  struct Entry {
    JobId id = kNoJob;
    Priority priority = Priority::kNormal;
    std::uint64_t seq = 0;  ///< global arrival order (FIFO tie-break)
    int workers = 0;        ///< worker-node demand
    /// Peak host-memory demand (bytes): the working set of the job's
    /// source (the whole cube when resident, queue_depth chunk buffers when
    /// streamed), 0 for jobs with no source.
    std::uint64_t memory = 0;
    /// Streaming-mode job (bounded-memory demand) — what the kAdaptive
    /// policy prefers under memory pressure.
    bool streaming = false;
  };

  void push(JobId id, Priority priority, int workers,
            std::uint64_t memory = 0, bool streaming = false);

  /// Remove a queued job (it was admitted or abandoned). Returns false if
  /// the id is not queued.
  bool remove(JobId id);

  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t size(Priority priority) const;

  /// Summed peak host-memory demand of every queued job — the numerator of
  /// the service's admission-pressure gauge (demand waiting vs budget
  /// left).
  [[nodiscard]] std::uint64_t total_memory_demand() const;

  /// Snapshot of all queued entries in admission order: priority class
  /// ascending (kHigh first), FIFO within a class.
  [[nodiscard]] std::vector<Entry> in_order() const;

 private:
  std::array<std::deque<Entry>, kPriorityClasses> classes_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace rif::service
