// Length-prefixed framing for the real byte transport.
//
// Every frame on a socket is `[magic u32][length u32][payload bytes]`, with
// the payload being a `scp::WireEnvelope` encoding (see scp/wire.h). The
// magic guards against a peer speaking the wrong protocol, and the length
// cap guards against a corrupt prefix allocating unbounded memory. The
// assembler reconstructs frames from arbitrary read() fragments, so the
// event loop never needs to block for a full frame.
//
// The header words are little-endian on the wire. The payload keeps the
// Writer/Reader host format (see support/serialize.h), so deployments must
// be same-endian end to end; a mixed-endian peer fails the envelope's
// bounds checks on the first frame rather than desyncing the stream.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "support/frame_bytes.h"

namespace rif::net {

inline constexpr std::uint32_t kFrameMagic = 0x52494631;  // "RIF1"

/// Hard ceiling on a single frame payload. Large enough for a full-cube
/// state transfer, small enough that a corrupt length dies immediately.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;  // 1 GiB

/// The `[magic][length]` header in front of every payload.
inline constexpr std::size_t kFrameHeaderBytes = 2 * sizeof(std::uint32_t);

/// Bytes a payload costs on the wire once framed.
[[nodiscard]] inline std::uint64_t framed_size(std::uint64_t payload_bytes) {
  return payload_bytes + kFrameHeaderBytes;
}

/// The header for a payload of `length` bytes. Senders write it and the
/// payload with one gather write, so the payload is never copied.
[[nodiscard]] std::array<std::uint8_t, kFrameHeaderBytes> frame_header(
    std::size_t length);

/// Serialize one frame (header + payload) into a contiguous buffer.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    std::span<const std::uint8_t> payload);

/// Incremental frame reassembler. A reader recv()s straight into window()
/// and commit()s what it got; the sink runs once per completed payload.
/// Headers and small frames collect in a fixed staging buffer. Once a
/// header announces a payload too large for it, the assembler reserves
/// exactly `length` bytes of FrameBytes and window() becomes that
/// payload's unfilled tail, so a large payload is filled in place, never
/// zero-filled first, and handed over without a copy. The payload's size
/// grows at most kGrowBytes ahead of the bytes received, and only written
/// bytes commit memory, so a hostile length commits no more than one huge
/// page (support/frame_bytes.h) past what the peer sent. commit() returns
/// false (and poisons the assembler) on bad magic or an oversized length;
/// the connection should then be dropped.
class FrameAssembler {
 public:
  using Sink = std::function<void(FrameBytes payload)>;
  /// How far window() reaches past the bytes a large payload has received.
  static constexpr std::size_t kGrowBytes = 1 << 20;

  /// Where the next read should land; never empty on a healthy assembler.
  [[nodiscard]] std::span<std::uint8_t> window();
  /// Account for `n` bytes just written to the front of window().
  [[nodiscard]] bool commit(std::size_t n, const Sink& sink);
  /// Copying entry point: feed whatever a read produced, one byte or ten
  /// frames.
  [[nodiscard]] bool feed(const std::uint8_t* data, std::size_t n,
                          const Sink& sink);

  [[nodiscard]] bool corrupt() const { return corrupt_; }
  /// Bytes buffered toward the next (incomplete) frame.
  [[nodiscard]] std::size_t pending_bytes() const {
    return staged_ + (large_length_ == 0 ? 0 : kFrameHeaderBytes + filled_);
  }

 private:
  static constexpr std::size_t kStageBytes = 1 << 16;

  std::vector<std::uint8_t> stage_;  ///< headers and small frames
  std::size_t staged_ = 0;           ///< valid bytes at the front of stage_
  FrameBytes large_;                 ///< payload being filled in place
  std::size_t large_length_ = 0;     ///< its announced length; 0 = none
  std::size_t filled_ = 0;           ///< valid bytes at the front of large_
  bool corrupt_ = false;
};

}  // namespace rif::net
