// Public identifiers and message types of the scp actor runtime.
//
// The runtime reproduces the programming model the paper attributes to
// SCPlib: a distributed application is a set of *logical threads* that
// communicate by messages; each logical thread may be realized by a group
// of replicas ("shadow threads", Fig. 1 of the paper). Application code is
// written against logical thread ids only — replication, acknowledgements,
// deduplication and regeneration are invisible to it.
#pragma once

#include <cstdint>
#include <vector>

namespace rif::scp {

/// Identity of a logical thread (application-level process).
using ThreadId = std::int32_t;
inline constexpr ThreadId kNoThread = -1;

/// Identity of a job: a set of logical threads spawned together on behalf of
/// one service request. The runtime can host many concurrent jobs, each with
/// its own actor topology; kNoJob marks threads outside any job (the
/// single-job world of the paper's evaluation).
using JobId = std::int64_t;
inline constexpr JobId kNoJob = -1;

/// An application message. `declared_bytes` lets CostOnly workloads carry a
/// tiny descriptor while charging the network for the size the real payload
/// would have had; 0 means "charge the encoded payload size".
struct Message {
  std::uint32_t type = 0;
  std::vector<std::uint8_t> payload;
  std::uint64_t declared_bytes = 0;

  [[nodiscard]] std::uint64_t wire_bytes() const {
    // The cost model charges a flat 64 bytes per message. The real socket
    // hop costs more: a WireEnvelope adds 76 fixed bytes and an 8-byte
    // checksum trailer (84), and its frame header 8 more. The model keeps
    // 64 so CostOnly figures stay comparable across versions.
    constexpr std::uint64_t kHeader = 64;
    return kHeader + (declared_bytes != 0 ? declared_bytes : payload.size());
  }
};

/// Protocol-level counters, exposed for the overhead analysis of Figure 4.
struct ProtocolStats {
  std::uint64_t app_messages = 0;        ///< application sends (logical)
  std::uint64_t replica_messages = 0;    ///< point-to-point fan-out copies
  std::uint64_t acks = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t failures_detected = 0;
  std::uint64_t replicas_regenerated = 0;
  std::uint64_t replicas_migrated = 0;
  std::uint64_t state_transfer_bytes = 0;
  std::uint64_t groups_lost = 0;
};

}  // namespace rif::scp
