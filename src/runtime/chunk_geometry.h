// Shared bounds validation for the streaming pipeline's chunk geometry.
//
// Before this helper existed, submit-time validation (FusionService) and
// the engine (fuse_streaming) each clamped chunk_lines/queue_depth with
// their own ad-hoc checks, and they disagreed: the service rejected
// queue_depth < 3 while the engine CHECK-aborted, and neither bounded the
// knobs from above — a huge chunk_lines silently asked the reader for a
// near-whole-cube buffer, defeating the bounded-memory contract. Both
// callers now share these bounds, so a bad request fails the same way
// everywhere: a clear error string instead of a crash or an absurd
// allocation.
#pragma once

namespace rif::runtime {

/// Image lines per chunk. The upper bound exists to keep one chunk buffer
/// an intentionally small I/O unit (64k lines of even a modest cube is
/// gigabytes — at that point the caller wants the in-memory engines).
inline constexpr int kMinChunkLines = 1;
inline constexpr int kMaxChunkLines = 65536;

/// Chunk buffers in flight. >= 3 covers one filling at the reader + one
/// draining at the compute stage + one queued between them; the upper
/// bound keeps "read-ahead" from quietly becoming "the whole cube,
/// resident".
inline constexpr int kMinQueueDepth = 3;
inline constexpr int kMaxQueueDepth = 256;

/// nullptr when the geometry is valid; otherwise a static human-readable
/// description of the violated bound (safe to log, never freed).
const char* validate_chunk_geometry(int chunk_lines, int queue_depth);

}  // namespace rif::runtime
