#include "net/frame.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "support/check.h"

namespace rif::net {

namespace {

// The header is explicitly little-endian so the magic/length check behaves
// identically on any host; a mixed-endian peer then fails fast inside the
// envelope's bounds checks instead of desyncing the frame stream.
void put_u32_le(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v & 0xFF);
  out[1] = static_cast<std::uint8_t>((v >> 8) & 0xFF);
  out[2] = static_cast<std::uint8_t>((v >> 16) & 0xFF);
  out[3] = static_cast<std::uint8_t>((v >> 24) & 0xFF);
}

std::uint32_t get_u32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::array<std::uint8_t, kFrameHeaderBytes> frame_header(std::size_t length) {
  RIF_CHECK_MSG(length <= kMaxFramePayload, "frame payload too large");
  std::array<std::uint8_t, kFrameHeaderBytes> h;
  put_u32_le(h.data(), kFrameMagic);
  put_u32_le(h.data() + sizeof(std::uint32_t),
             static_cast<std::uint32_t>(length));
  return h;
}

std::vector<std::uint8_t> encode_frame(
    std::span<const std::uint8_t> payload) {
  const auto header = frame_header(payload.size());
  std::vector<std::uint8_t> out(framed_size(payload.size()));
  std::memcpy(out.data(), header.data(), header.size());
  if (!payload.empty()) {
    std::memcpy(out.data() + header.size(), payload.data(), payload.size());
  }
  return out;
}

std::span<std::uint8_t> FrameAssembler::window() {
  if (large_length_ != 0) {
    if (filled_ == large_.size()) {  // within the reservation: no realloc
      large_.resize(std::min(large_length_, filled_ + kGrowBytes));
    }
    return std::span(large_).subspan(filled_);
  }
  if (stage_.empty()) stage_.resize(kStageBytes);
  return std::span(stage_).subspan(staged_);
}

bool FrameAssembler::commit(std::size_t n, const Sink& sink) {
  if (corrupt_) return false;
  if (large_length_ != 0) {
    filled_ += n;
    if (filled_ == large_length_) {
      large_length_ = 0;
      filled_ = 0;
      sink(std::exchange(large_, {}));
    }
    return true;
  }
  staged_ += n;
  std::size_t pos = 0;
  while (staged_ - pos >= kFrameHeaderBytes) {
    const std::uint8_t* head = stage_.data() + pos;
    const std::uint32_t magic = get_u32_le(head);
    const std::uint32_t length = get_u32_le(head + sizeof(std::uint32_t));
    if (magic != kFrameMagic || length > kMaxFramePayload) {
      corrupt_ = true;
      staged_ = 0;
      return false;
    }
    const std::size_t have = staged_ - pos - kFrameHeaderBytes;
    if (have >= length) {
      const std::uint8_t* body = head + kFrameHeaderBytes;
      pos += kFrameHeaderBytes + length;
      sink(FrameBytes(body, body + length));
      continue;
    }
    if (kFrameHeaderBytes + length > kStageBytes) {
      // Too large to stage: move the bytes already here into an exact-size
      // payload; the reader fills the rest of it in place.
      large_length_ = length;
      large_.reserve(length);
      large_.assign(head + kFrameHeaderBytes, head + kFrameHeaderBytes + have);
      filled_ = have;
      pos = staged_;
    }
    break;
  }
  // Keep the incomplete tail at the front of the staging buffer.
  std::memmove(stage_.data(), stage_.data() + pos, staged_ - pos);
  staged_ -= pos;
  return true;
}

bool FrameAssembler::feed(const std::uint8_t* data, std::size_t n,
                          const Sink& sink) {
  if (corrupt_) return false;
  while (n > 0) {
    const std::span<std::uint8_t> win = window();
    const std::size_t k = std::min(n, win.size());
    std::memcpy(win.data(), data, k);
    if (!commit(k, sink)) return false;
    data += k;
    n -= k;
  }
  return true;
}

}  // namespace rif::net
