// Byte-buffer serialization for actor messages and replica state transfer.
//
// SCPlib-era systems had to move thread state between machines with
// different byte orders and float formats; we keep the explicit
// encode/decode discipline (every message type provides encode()/decode())
// but target a single host format since the simulated cluster is
// homogeneous. The archive is bounds-checked: a malformed buffer trips a
// RIF_CHECK instead of reading out of bounds.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "support/check.h"
#include "support/frame_bytes.h"

namespace rif {

/// Append-only encoder producing a flat byte buffer of type `Bytes`.
template <typename Bytes>
class BasicWriter {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  /// Raw bytes, no length prefix.
  void put_bytes(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  void put_string(const std::string& s) {
    put<std::uint64_t>(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Length-prefixed bulk array. Capacity is reserved up front so a band
  /// array lands in one growth step instead of doubling per element range.
  /// Wire format is identical to put_vector (u64 count + raw bytes).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_span(std::span<const T> v) {
    buf_.reserve(buf_.size() + sizeof(std::uint64_t) + v.size() * sizeof(T));
    put<std::uint64_t>(v.size());
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    buf_.insert(buf_.end(), p, p + v.size() * sizeof(T));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_vector(const std::vector<T>& v) {
    put_span(std::span<const T>(v));
  }

  /// Reserve room for `n` more bytes, so a caller that knows the encoded
  /// size allocates once.
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

using Writer = BasicWriter<std::vector<std::uint8_t>>;
/// Writes straight into a socket-plane frame buffer (support/frame_bytes.h).
using FrameWriter = BasicWriter<FrameBytes>;

/// Sequential decoder over a byte buffer produced by Writer. It reads a
/// view, so a body can be decoded in place from the frame that carried it.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> buf) : buf_(buf) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    RIF_CHECK_MSG(sizeof(T) <= remaining(), "truncated message");
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Non-aborting variant for payloads that crossed a trust boundary (the
  /// socket plane): false on truncation, leaving `out` untouched.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  [[nodiscard]] bool try_get(T& out) {
    if (sizeof(T) > remaining()) return false;
    std::memcpy(&out, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  std::string get_string() {
    // Length first, then bound it by what is actually left: a hostile or
    // corrupt length must not index (or allocate) past the buffer.
    const auto n = get<std::uint64_t>();
    RIF_CHECK_MSG(n <= remaining(), "truncated string");
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> get_vector() {
    // Divide instead of multiplying: `n * sizeof(T)` on an attacker-chosen
    // 64-bit count wraps around and would pass a naive bound check.
    const auto n = get<std::uint64_t>();
    RIF_CHECK_MSG(n <= remaining() / sizeof(T), "truncated vector");
    std::vector<T> v(static_cast<std::size_t>(n));
    if (!v.empty()) {
      std::memcpy(v.data(), buf_.data() + pos_, v.size() * sizeof(T));
    }
    pos_ += v.size() * sizeof(T);
    return v;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  [[nodiscard]] bool try_get_vector(std::vector<T>& out) {
    std::uint64_t n = 0;
    if (!try_get(n)) return false;
    if (n > remaining() / sizeof(T)) return false;
    out.resize(static_cast<std::size_t>(n));
    if (!out.empty()) {
      std::memcpy(out.data(), buf_.data() + pos_, out.size() * sizeof(T));
    }
    pos_ += out.size() * sizeof(T);
    return true;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == buf_.size(); }
  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace rif
