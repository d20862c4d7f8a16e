#include "scp/wire.h"

#include <bit>
#include <cstring>

namespace rif::scp {

namespace {

WireAddr get_addr(Reader& r) {
  WireAddr a;
  a.tid = r.get<ThreadId>();
  a.slot = r.get<std::int32_t>();
  a.incarnation = r.get<std::uint64_t>();
  return a;
}

constexpr std::size_t kAddrBytes =
    sizeof(ThreadId) + sizeof(std::int32_t) + sizeof(std::uint64_t);
static_assert(WireEnvelope::kHeaderBytes ==
                  sizeof(std::uint32_t) +        // kind
                      2 * sizeof(cluster::NodeId) +  // src_node, dst_node
                      2 * kAddrBytes +               // src, dst
                      sizeof(std::uint64_t) +        // seq
                      sizeof(std::uint32_t) +        // msg_type
                      sizeof(std::uint64_t) +        // declared
                      sizeof(std::uint32_t) +        // flag
                      sizeof(std::uint64_t),         // body length prefix
              "WireEnvelope header layout");

/// One lane step: absorb the 8-byte word at `p` into state `s`.
std::uint64_t lane_step(std::uint64_t s, const std::uint8_t* p) {
  constexpr std::uint64_t kQ = 0x9E3779B97F4A7C15ULL;  // odd
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return std::rotl(s ^ w, 31) * kQ;
}

/// Checksum over everything before the trailer. Not cryptographic — it
/// exists to catch CORRUPTION (bit rot, a chaos-injected byte flip, a
/// buggy middlebox), so a frame whose payload was damaged in flight is
/// rejected as malformed instead of feeding garbage floats into a merge.
///
/// Four independent 64-bit lanes each absorb one word of every 32-byte
/// block; the leftover words run through one lane step and the last
/// partial word an FNV-style step. Every step — the lane step
/// `rotl(s ^ w, 31) * Q` (Q odd), the rotate-and-add lane combine, the
/// length fold and the xorshift-multiply finaliser — is a bijection of the
/// state for a fixed input, and of the input word for a fixed state. So a
/// change confined to one aligned 8-byte word always changes the result.
std::uint64_t envelope_checksum(const std::uint8_t* data, std::size_t size) {
  constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
  std::uint64_t s0 = 0x243F6A8885A308D3ULL;
  std::uint64_t s1 = 0x13198A2E03707344ULL;
  std::uint64_t s2 = 0xA4093822299F31D0ULL;
  std::uint64_t s3 = 0x082EFA98EC4E6C89ULL;
  std::size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    s0 = lane_step(s0, data + i);
    s1 = lane_step(s1, data + i + 8);
    s2 = lane_step(s2, data + i + 16);
    s3 = lane_step(s3, data + i + 24);
  }
  std::uint64_t h = std::rotl(s0, 1) + std::rotl(s1, 7) +
                    std::rotl(s2, 12) + std::rotl(s3, 18);
  for (; i + 8 <= size; i += 8) h = lane_step(h, data + i);
  if (i < size) {
    std::uint64_t w = 0;
    std::memcpy(&w, data + i, size - i);
    h = (h ^ w) * kFnvPrime;
  }
  h ^= static_cast<std::uint64_t>(size);
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

std::span<const std::uint8_t> WireEnvelope::body() const {
  if (frame_.empty()) return payload;
  return std::span<const std::uint8_t>(frame_).subspan(
      kHeaderBytes, frame_.size() - kHeaderBytes - kTrailerBytes);
}

std::array<std::uint8_t, WireEnvelope::kHeaderBytes> WireEnvelope::header(
    std::size_t body_bytes) const {
  std::array<std::uint8_t, kHeaderBytes> h{};
  std::size_t at = 0;
  const auto put = [&](const auto& v) {
    std::memcpy(h.data() + at, &v, sizeof(v));
    at += sizeof(v);
  };
  put(static_cast<std::uint32_t>(kind));
  put(src_node);
  put(dst_node);
  for (const WireAddr* a : {&src, &dst}) {
    put(a->tid);
    put(a->slot);
    put(a->incarnation);
  }
  put(seq);
  put(msg_type);
  put(declared);
  put(flag);
  put(static_cast<std::uint64_t>(body_bytes));  // rewritten by seal()
  return h;
}

void WireEnvelope::seal(std::span<std::uint8_t> bytes) {
  const std::uint64_t body_len = bytes.size() - kHeaderBytes - kTrailerBytes;
  std::memcpy(bytes.data() + kHeaderBytes - sizeof(body_len), &body_len,
              sizeof(body_len));
  const std::size_t summed = bytes.size() - kTrailerBytes;
  const std::uint64_t sum = envelope_checksum(bytes.data(), summed);
  std::memcpy(bytes.data() + summed, &sum, sizeof(sum));
}

const char* WireEnvelope::parse(std::span<const std::uint8_t> bytes,
                                WireEnvelope& out, bool copy_body) {
  // Everything before the body has a constant size, and the body's length
  // prefix must account for exactly the bytes that remain before the
  // checksum trailer.
  if (bytes.size() < kHeaderBytes + kTrailerBytes) return "truncated envelope";
  Reader r(bytes);
  const auto kind = r.get<std::uint32_t>();
  if (kind < static_cast<std::uint32_t>(FrameKind::kApp) ||
      kind > static_cast<std::uint32_t>(FrameKind::kTelemetry)) {
    return "unknown frame kind";
  }
  out.kind = static_cast<FrameKind>(kind);
  out.src_node = r.get<cluster::NodeId>();
  out.dst_node = r.get<cluster::NodeId>();
  out.src = get_addr(r);
  out.dst = get_addr(r);
  out.seq = r.get<std::uint64_t>();
  out.msg_type = r.get<std::uint32_t>();
  out.declared = r.get<std::uint64_t>();
  out.flag = r.get<std::uint32_t>();
  const auto body_len = r.get<std::uint64_t>();
  const std::size_t rest = bytes.size() - kHeaderBytes - kTrailerBytes;
  if (body_len > rest) return "truncated envelope";
  if (body_len < rest) return "oversized envelope";
  std::uint64_t sum = 0;
  std::memcpy(&sum, bytes.data() + bytes.size() - kTrailerBytes, sizeof(sum));
  if (sum != envelope_checksum(bytes.data(), bytes.size() - kTrailerBytes)) {
    return "corrupt envelope";
  }
  if (copy_body) {
    const auto body = bytes.subspan(kHeaderBytes, rest);
    out.payload.assign(body.begin(), body.end());
  }
  return nullptr;
}

std::optional<WireEnvelope> WireEnvelope::try_decode(
    std::span<const std::uint8_t> bytes) {
  WireEnvelope e;
  if (parse(bytes, e, /*copy_body=*/true) != nullptr) return std::nullopt;
  return e;
}

std::optional<WireEnvelope> WireEnvelope::try_decode(FrameBytes&& frame) {
  WireEnvelope e;
  if (parse(frame, e, /*copy_body=*/false) != nullptr) return std::nullopt;
  e.frame_ = std::move(frame);
  return e;
}

WireEnvelope WireEnvelope::decode(std::span<const std::uint8_t> bytes) {
  WireEnvelope e;
  const char* defect = parse(bytes, e, /*copy_body=*/true);
  RIF_CHECK_MSG(defect == nullptr, defect);
  return e;
}

std::vector<std::uint8_t> HelloBody::encode() const {
  Writer w;
  w.put(protocol_version);
  return std::move(w).take();
}

std::vector<std::uint8_t> JobStartBody::encode() const {
  Writer w;
  w.put(job_id);
  w.put(width);
  w.put(height);
  w.put(bands);
  w.put(screening_threshold);
  w.put(output_components);
  return std::move(w).take();
}

JobStartBody JobStartBody::decode(std::span<const std::uint8_t> bytes) {
  auto b = try_decode(bytes);
  RIF_CHECK_MSG(b.has_value(), "malformed job start");
  return *b;
}

std::optional<JobStartBody> JobStartBody::try_decode(
    std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  JobStartBody b;
  if (!r.try_get(b.job_id) || !r.try_get(b.width) || !r.try_get(b.height) ||
      !r.try_get(b.bands) || !r.try_get(b.screening_threshold) ||
      !r.try_get(b.output_components) || !r.exhausted()) {
    return std::nullopt;
  }
  // A job the worker could not shape its tiles, shards or transform by.
  if (b.width <= 0 || b.height <= 0 || b.bands <= 0 ||
      b.output_components < 3 || b.output_components > b.bands) {
    return std::nullopt;
  }
  return b;
}

namespace {

// Hard bounds on a TelemetryBody off the wire. A hostile length prefix
// must neither allocate unboundedly nor index past the buffer; the byte
// budget is additionally capped by the envelope's own framing.
constexpr std::uint64_t kMaxTelemetryName = 256;
constexpr std::uint64_t kMaxTelemetrySpans = 65536;
constexpr std::uint64_t kMaxTelemetrySeries = 4096;
constexpr std::uint64_t kMaxTelemetryLogs = 1024;
constexpr std::uint64_t kMaxTelemetryMessage = 512;

/// Bounded non-aborting string read (Reader::get_string aborts on
/// truncation — wrong side of the trust boundary here). Rejects empty and
/// oversized names outright: no legitimate producer emits either.
bool try_get_name(Reader& r, std::string& out) {
  std::vector<char> raw;
  if (!r.try_get_vector(raw)) return false;
  if (raw.empty() || raw.size() > kMaxTelemetryName) return false;
  out.assign(raw.begin(), raw.end());
  return true;
}

/// Like try_get_name but for free text: empty is legal (a log line can be
/// blank), only the length is bounded.
bool try_get_text(Reader& r, std::string& out) {
  std::vector<char> raw;
  if (!r.try_get_vector(raw)) return false;
  if (raw.size() > kMaxTelemetryMessage) return false;
  out.assign(raw.begin(), raw.end());
  return true;
}

bool valid_phase(char phase) {
  return phase == 'X' || phase == 'i' || phase == 'C' || phase == 'B' ||
         phase == 'E';
}

}  // namespace

std::vector<std::uint8_t> TelemetryBody::encode() const {
  Writer w;
  w.put(job_id);
  w.put(flush_index);
  w.put<std::uint64_t>(spans.size());
  for (const TelemetrySpan& s : spans) {
    w.put_string(s.name);
    w.put(s.ts_ns);
    w.put(s.dur_ns);
    w.put(s.job);
    w.put(s.value);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(s.phase));
  }
  w.put<std::uint64_t>(counters.size());
  for (const auto& [name, value] : counters) {
    w.put_string(name);
    w.put(value);
  }
  w.put<std::uint64_t>(gauges.size());
  for (const auto& [name, kind, value] : gauges) {
    w.put_string(name);
    w.put(kind);
    w.put(value);
  }
  w.put<std::uint64_t>(histograms.size());
  for (const TelemetryHistogram& h : histograms) {
    w.put_string(h.name);
    w.put(h.count);
    w.put(h.sum);
    w.put(h.min);
    w.put(h.max);
    w.put_vector(h.buckets);
  }
  w.put<std::uint64_t>(logs.size());
  for (const TelemetryLog& l : logs) {
    w.put(l.level);
    w.put_string(l.component);
    w.put_string(l.message);
    w.put(l.job);
    w.put(l.ts_ns);
  }
  return std::move(w).take();
}

std::optional<TelemetryBody> TelemetryBody::try_decode(
    std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  TelemetryBody b;
  if (!r.try_get(b.job_id) || !r.try_get(b.flush_index)) return std::nullopt;

  std::uint64_t n = 0;
  if (!r.try_get(n) || n > kMaxTelemetrySpans) return std::nullopt;
  b.spans.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    TelemetrySpan s;
    std::uint8_t phase = 0;
    if (!try_get_name(r, s.name) || !r.try_get(s.ts_ns) ||
        !r.try_get(s.dur_ns) || !r.try_get(s.job) || !r.try_get(s.value) ||
        !r.try_get(phase)) {
      return std::nullopt;
    }
    s.phase = static_cast<char>(phase);
    if (!valid_phase(s.phase)) return std::nullopt;
    b.spans.push_back(std::move(s));
  }

  if (!r.try_get(n) || n > kMaxTelemetrySeries) return std::nullopt;
  b.counters.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name;
    std::uint64_t value = 0;
    if (!try_get_name(r, name) || !r.try_get(value)) return std::nullopt;
    b.counters.emplace_back(std::move(name), value);
  }

  if (!r.try_get(n) || n > kMaxTelemetrySeries) return std::nullopt;
  b.gauges.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name;
    std::uint8_t kind = 0;
    double value = 0.0;
    if (!try_get_name(r, name) || !r.try_get(kind) || !r.try_get(value)) {
      return std::nullopt;
    }
    if (kind > 1) return std::nullopt;  // runtime::GaugeKind has two values
    b.gauges.emplace_back(std::move(name), kind, value);
  }

  if (!r.try_get(n) || n > kMaxTelemetrySeries) return std::nullopt;
  b.histograms.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    TelemetryHistogram h;
    if (!try_get_name(r, h.name) || !r.try_get(h.count) || !r.try_get(h.sum) ||
        !r.try_get(h.min) || !r.try_get(h.max) ||
        !r.try_get_vector(h.buckets) ||
        h.buckets.size() != kTelemetryHistogramBuckets) {
      return std::nullopt;
    }
    b.histograms.push_back(std::move(h));
  }

  if (!r.try_get(n) || n > kMaxTelemetryLogs) return std::nullopt;
  b.logs.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    TelemetryLog l;
    if (!r.try_get(l.level) || !try_get_name(r, l.component) ||
        !try_get_text(r, l.message) || !r.try_get(l.job) ||
        !r.try_get(l.ts_ns)) {
      return std::nullopt;
    }
    if (l.level > 4) return std::nullopt;  // rif::LogLevel has five values
    b.logs.push_back(std::move(l));
  }

  if (!r.exhausted()) return std::nullopt;
  return b;
}

}  // namespace rif::scp
