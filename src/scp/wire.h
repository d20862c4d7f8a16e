// Wire envelope shared by the virtual-time and real-socket transports.
//
// Every hop the actor runtime takes — application messages, acks,
// heartbeats, snapshot requests, state installs — is one WireEnvelope,
// encoded with the same Writer/Reader discipline as the application
// messages it carries. The envelope is transport-agnostic: the sim
// transport hands the encoded bytes across a virtual link and the socket
// transport frames them onto a file descriptor, so a protocol trace is
// byte-identical between the two. The worker-plane kinds (kHello..kGoodbye)
// are used by the remote-execution path, where a `rif_worker` process
// leases itself into the service's cluster over the same framing.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/node.h"
#include "scp/types.h"
#include "support/frame_bytes.h"
#include "support/serialize.h"

namespace rif::scp {

enum class FrameKind : std::uint32_t {
  // Actor-runtime plane.
  kApp = 1,              ///< application message replica copy
  kAck = 2,              ///< per-copy acknowledgement
  kHeartbeat = 3,        ///< replica -> failure detector
  kSnapshotRequest = 4,  ///< detector/migrator -> source replica
  kStateInstall = 5,     ///< serialized replica state -> new home
  // Worker plane (remote execution protocol).
  kHello = 6,    ///< worker -> service: lease me in
  kWelcome = 7,  ///< service -> worker: assigned node id
  kJobStart = 8,
  kJobEnd = 9,
  kGoodbye = 10,  ///< graceful close (either direction)
  // Liveness supervision (worker plane). A worker that is computing will
  // answer pings late — supervision timeouts must exceed the longest
  // single shard, not the network round trip.
  kPing = 11,  ///< service -> worker: prove you are alive
  kPong = 12,  ///< worker -> service: echo; refreshes last-activity
  // Telemetry plane (worker plane). Spans and metrics recorded inside a
  // worker process would die with it; kTelemetry ships them back over the
  // same framing the work travels on, so one job across N processes reads
  // as one trace. Fire-and-forget: a dropped batch is a missing trace
  // lane, never a protocol stall.
  kTelemetry = 13,  ///< worker -> service: TelemetryBody batch
};

/// Replica address: enough to route a frame to one shell and to drop it if
/// the shell died or was reincarnated since the frame was sent.
struct WireAddr {
  ThreadId tid = kNoThread;
  std::int32_t slot = -1;
  std::uint64_t incarnation = 0;
};

/// The one envelope every transport hop uses. Only the fields a kind needs
/// are populated; encode() writes them all (fixed layout keeps the decoder
/// trivial and the header cost constant) and appends a checksum trailer: a
/// word-wise 4-lane 64-bit hash whose every step is a bijection, so any
/// change confined to one aligned 8-byte word — every single-byte flip
/// included — is rejected at decode by construction, instead of smuggling
/// garbage into a merge. Wire layout, host byte order:
///
///   [kind u32][src_node][dst_node][src addr][dst addr][seq u64]
///   [msg_type u32][declared u64][flag u32][body length u64]   76 bytes
///   [body]
///   [checksum u64]                                             8 bytes
struct WireEnvelope {
  /// Fixed bytes before the body, length prefix included.
  static constexpr std::size_t kHeaderBytes = 76;
  /// The checksum trailer after the body.
  static constexpr std::size_t kTrailerBytes = sizeof(std::uint64_t);

  FrameKind kind = FrameKind::kApp;
  cluster::NodeId src_node = cluster::kNoNode;
  cluster::NodeId dst_node = cluster::kNoNode;
  WireAddr src;
  WireAddr dst;
  std::uint64_t seq = 0;        ///< kApp / kAck: per-destination sequence.
                                ///< Worker plane: job id the frame belongs
                                ///< to, so a coordinator can drop frames
                                ///< left over from an earlier job.
  std::uint32_t msg_type = 0;   ///< kApp: application MsgType
  std::uint64_t declared = 0;   ///< kApp: Message::declared_bytes
  std::uint32_t flag = 0;       ///< kStateInstall: 1 = migration semantics
  /// The body encode() writes (kApp: message body; kStateInstall:
  /// serialized state; worker plane: kind-specific body). A decode that
  /// borrows its input copies the body here; one that takes a frame by
  /// value keeps the frame and leaves this empty. Read a decoded body
  /// through body(), which covers both.
  std::vector<std::uint8_t> payload;

  /// The body: a view into the frame a by-value decode kept, else
  /// `payload`. Valid while this envelope, or one it is moved into, lives
  /// and is not modified.
  [[nodiscard]] std::span<const std::uint8_t> body() const;

  /// Header, payload and checksum trailer in one buffer, allocated once.
  /// The socket plane encodes into its frame buffers: encode<FrameBytes>().
  template <typename Bytes = std::vector<std::uint8_t>>
  [[nodiscard]] Bytes encode() const {
    return encode_with<Bytes>(payload.size(), [this](auto& w) {
      w.put_bytes(std::span<const std::uint8_t>(payload));
    });
  }

  /// encode(), with the body written straight into the envelope buffer by
  /// `write_body(BasicWriter<Bytes>&)` instead of copied from `payload`
  /// (ignored). `body_bytes` sizes the single allocation; the length
  /// prefix records whatever `write_body` actually wrote.
  template <typename Bytes = std::vector<std::uint8_t>, typename WriteBody>
  [[nodiscard]] Bytes encode_with(std::size_t body_bytes,
                                  WriteBody&& write_body) const {
    BasicWriter<Bytes> w;
    w.reserve(kHeaderBytes + body_bytes + kTrailerBytes);
    w.put_bytes(header(body_bytes));
    write_body(w);
    w.put(std::uint64_t{0});  // the trailer seal() fills in
    Bytes bytes = std::move(w).take();
    seal(bytes);
    return bytes;
  }

  /// Trusted-path decode: try_decode() plus a fatal RIF_CHECK naming the
  /// defect. Use only on frames this process produced (the sim transport,
  /// loopback to our own worker binary under test).
  static WireEnvelope decode(std::span<const std::uint8_t> bytes);

  /// Trust-boundary decode: returns nullopt on any malformed input
  /// (truncated, trailing bytes, unknown kind, checksum mismatch) instead
  /// of aborting. Use on every frame that arrives over a socket from a
  /// peer process. This overload copies the body into `payload`.
  static std::optional<WireEnvelope> try_decode(
      std::span<const std::uint8_t> bytes);
  /// As above, but the envelope keeps `frame` and body() views into it:
  /// the receive path's body is never copied.
  static std::optional<WireEnvelope> try_decode(FrameBytes&& frame);

  /// Rebuild the application Message carried by a kApp envelope. Copies
  /// the body; the rvalue overload moves `payload` instead when the body
  /// is there.
  [[nodiscard]] Message to_message() const& {
    const std::span<const std::uint8_t> b = body();
    return {msg_type, {b.begin(), b.end()}, declared};
  }
  [[nodiscard]] Message to_message() && {
    if (!frame_.empty()) return std::as_const(*this).to_message();
    return {msg_type, std::move(payload), declared};
  }

 private:
  /// The fixed header for a body of `body_bytes`.
  [[nodiscard]] std::array<std::uint8_t, kHeaderBytes> header(
      std::size_t body_bytes) const;
  /// Rewrites the body length of an encoded envelope to the bytes between
  /// header and trailer, then fills the trailer with the checksum.
  static void seal(std::span<std::uint8_t> bytes);
  /// Parses and verifies `bytes` into `out` (its body into `payload` when
  /// `copy_body`); returns nullptr, or what is wrong with the frame.
  static const char* parse(std::span<const std::uint8_t> bytes,
                           WireEnvelope& out, bool copy_body);

  FrameBytes frame_;  ///< by-value decode: the whole frame
};

/// kHello payload: what a connecting worker advertises.
struct HelloBody {
  std::uint32_t protocol_version = 1;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
};

/// kJobStart payload: everything a worker needs before tiles arrive.
struct JobStartBody {
  std::int64_t job_id = 0;
  std::int32_t width = 0;
  std::int32_t height = 0;
  std::int32_t bands = 0;
  double screening_threshold = 0.0;
  std::int32_t output_components = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static JobStartBody decode(std::span<const std::uint8_t> bytes);
  /// Non-aborting decode for bodies off the socket plane. Refuses a
  /// non-positive width, height or band count, and output_components
  /// outside [3, bands]. The screening threshold is the worker's to check
  /// (core::UniqueSet::valid_threshold).
  static std::optional<JobStartBody> try_decode(
      std::span<const std::uint8_t> bytes);
};

/// One span event shipped in a kTelemetry batch. Names travel as strings —
/// the worker's string literals live in another address space. Completed
/// spans ship as 'X' (start + duration, both on the WORKER's raw
/// steady-clock ns; the coordinator's ping-echo offset estimate maps them
/// onto its own wall timeline at export); instants 'i' and counters 'C'
/// carry dur 0. 'B'/'E' are legal on the wire but must balance within a
/// batch — the ingest side rejects unbalanced batches whole.
struct TelemetrySpan {
  std::string name;
  std::uint64_t ts_ns = 0;   ///< worker steady-clock ns (absolute)
  std::uint64_t dur_ns = 0;  ///< 'X' only; 0 otherwise
  std::int64_t job = -1;     ///< job attribution; -1 = none
  double value = 0.0;        ///< 'C' only
  char phase = 'i';          ///< X | i | C | B | E
};

/// One histogram's cumulative state as shipped: raw log2 buckets (not just
/// moments), so the coordinator can install the worker's distribution under
/// a prefixed name and quantiles survive the hop.
struct TelemetryHistogram {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<std::uint64_t> buckets;  ///< exactly kTelemetryHistogramBuckets
};

/// Bucket count every shipped histogram must carry — mirrors
/// runtime::Histogram::kBuckets (static_asserted at the ingest site; scp
/// stays independent of the runtime layer).
inline constexpr std::size_t kTelemetryHistogramBuckets = 27;

/// One structured log record shipped in a kTelemetry batch — the wire
/// shape of rif::LogRecord (mirrored here so scp/ stays independent of
/// support/'s logger). `level` mirrors rif::LogLevel (0..4); `ts_ns` is
/// the worker's raw steady clock at emission (the ingest side stamps the
/// record with its own arrival time — a log line is an annotation, not a
/// span, so it does not ride the clock-offset mapping).
struct TelemetryLog {
  std::uint8_t level = 2;
  std::string component;
  std::string message;
  std::int64_t job = -1;
  std::uint64_t ts_ns = 0;
};

/// Whole-job span a worker records at kJobEnd immediately before its
/// final force-flush for that job. The coordinator keys "this worker's
/// lane for job J is complete" on seeing it: mid-job periodic flushes
/// also carry job-tagged spans, so the telemetry barrier must wait for
/// the batch containing THIS span, not any batch mentioning the job.
inline constexpr const char* kJobSpanName = "remote.job";

/// kTelemetry payload: a batch of span events plus a cumulative
/// MetricsRegistry snapshot (counters / gauges / histograms), flushed by
/// the worker on job end and on a periodic timer. Crosses a trust
/// boundary: decode ONLY via try_decode, which bounds every count and
/// string length before allocating.
struct TelemetryBody {
  std::int64_t job_id = -1;       ///< job the batch belongs to; -1 = idle
  std::uint64_t flush_index = 0;  ///< monotone per session (dedupe key)
  std::vector<TelemetrySpan> spans;
  /// Cumulative totals — the ingest side advances its prefixed series to
  /// these values, so re-shipment is idempotent.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// (name, gauge kind as u8, value); kind mirrors runtime::GaugeKind.
  std::vector<std::tuple<std::string, std::uint8_t, double>> gauges;
  std::vector<TelemetryHistogram> histograms;
  /// Rate-limited structured log records buffered since the last flush
  /// (not cumulative — each record ships once, on the final batch of a
  /// flush alongside the metrics).
  std::vector<TelemetryLog> logs;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// Non-aborting decode with hard bounds (span/series/log counts, name
  /// and message lengths, phase and level alphabets, bucket counts).
  /// nullopt = drop the batch.
  static std::optional<TelemetryBody> try_decode(
      std::span<const std::uint8_t> bytes);
};

}  // namespace rif::scp
