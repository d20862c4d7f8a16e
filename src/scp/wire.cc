#include "scp/wire.h"

#include <cstring>
#include <span>

#include "support/serialize.h"

namespace rif::scp {

namespace {

void put_addr(Writer& w, const WireAddr& a) {
  w.put(a.tid);
  w.put(a.slot);
  w.put(a.incarnation);
}

WireAddr get_addr(Reader& r) {
  WireAddr a;
  a.tid = r.get<ThreadId>();
  a.slot = r.get<std::int32_t>();
  a.incarnation = r.get<std::uint64_t>();
  return a;
}

/// FNV-1a over everything before the trailer. Not cryptographic — it exists
/// to catch CORRUPTION (bit rot, a chaos-injected byte flip, a buggy
/// middlebox), so a frame whose payload was damaged in flight is rejected
/// as malformed instead of feeding garbage floats into a merge.
std::uint64_t envelope_checksum(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::vector<std::uint8_t> WireEnvelope::encode() const {
  Writer w;
  w.put(static_cast<std::uint32_t>(kind));
  w.put(src_node);
  w.put(dst_node);
  put_addr(w, src);
  put_addr(w, dst);
  w.put(seq);
  w.put(msg_type);
  w.put(declared);
  w.put(flag);
  w.put_span(std::span<const std::uint8_t>(payload));
  auto bytes = std::move(w).take();
  const std::uint64_t sum = envelope_checksum(bytes.data(), bytes.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(&sum);
  bytes.insert(bytes.end(), p, p + sizeof(sum));
  return bytes;
}

std::optional<WireEnvelope> WireEnvelope::try_decode(
    const std::vector<std::uint8_t>& bytes) {
  // Mirror of decode()'s fixed layout: everything before the payload has a
  // constant size, and the payload's length prefix must account for exactly
  // the bytes that remain before the checksum trailer. Verifying that up
  // front — plus the checksum itself — makes decode() safe.
  constexpr std::size_t kAddrBytes =
      sizeof(ThreadId) + sizeof(std::int32_t) + sizeof(std::uint64_t);
  constexpr std::size_t kFixedBytes =
      sizeof(std::uint32_t) +             // kind
      2 * sizeof(cluster::NodeId) +       // src_node, dst_node
      2 * kAddrBytes +                    // src, dst
      sizeof(std::uint64_t) +             // seq
      sizeof(std::uint32_t) +             // msg_type
      sizeof(std::uint64_t) +             // declared
      sizeof(std::uint32_t) +             // flag
      sizeof(std::uint64_t);              // payload length prefix
  constexpr std::size_t kTrailerBytes = sizeof(std::uint64_t);  // checksum
  if (bytes.size() < kFixedBytes + kTrailerBytes) return std::nullopt;

  std::uint32_t kind = 0;
  std::memcpy(&kind, bytes.data(), sizeof(kind));
  if (kind < static_cast<std::uint32_t>(FrameKind::kApp) ||
      kind > static_cast<std::uint32_t>(FrameKind::kTelemetry)) {
    return std::nullopt;
  }
  std::uint64_t payload_len = 0;
  std::memcpy(&payload_len,
              bytes.data() + kFixedBytes - sizeof(payload_len),
              sizeof(payload_len));
  if (payload_len != bytes.size() - kFixedBytes - kTrailerBytes) {
    return std::nullopt;
  }
  std::uint64_t sum = 0;
  std::memcpy(&sum, bytes.data() + bytes.size() - kTrailerBytes,
              sizeof(sum));
  if (sum != envelope_checksum(bytes.data(), bytes.size() - kTrailerBytes)) {
    return std::nullopt;
  }
  return decode(bytes);
}

WireEnvelope WireEnvelope::decode(const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  WireEnvelope e;
  const auto kind = r.get<std::uint32_t>();
  RIF_CHECK_MSG(kind >= static_cast<std::uint32_t>(FrameKind::kApp) &&
                    kind <= static_cast<std::uint32_t>(FrameKind::kTelemetry),
                "unknown frame kind");
  e.kind = static_cast<FrameKind>(kind);
  e.src_node = r.get<cluster::NodeId>();
  e.dst_node = r.get<cluster::NodeId>();
  e.src = get_addr(r);
  e.dst = get_addr(r);
  e.seq = r.get<std::uint64_t>();
  e.msg_type = r.get<std::uint32_t>();
  e.declared = r.get<std::uint64_t>();
  e.flag = r.get<std::uint32_t>();
  e.payload = r.get_vector<std::uint8_t>();
  const auto sum = r.get<std::uint64_t>();
  RIF_CHECK_MSG(r.exhausted(), "oversized envelope");
  RIF_CHECK_MSG(sum == envelope_checksum(bytes.data(),
                                         bytes.size() - sizeof(sum)),
                "corrupt envelope");
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

JobStartBody JobStartBody::decode(const std::vector<std::uint8_t>& bytes) {
  auto b = try_decode(bytes);
  RIF_CHECK_MSG(b.has_value(), "malformed job start");
  return *b;
}

std::optional<JobStartBody> JobStartBody::try_decode(
    const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  JobStartBody b;
  if (!r.try_get(b.job_id) || !r.try_get(b.width) || !r.try_get(b.height) ||
      !r.try_get(b.bands) || !r.try_get(b.screening_threshold) ||
      !r.try_get(b.output_components) || !r.exhausted()) {
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
    const std::vector<std::uint8_t>& bytes) {
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
