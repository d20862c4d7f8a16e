#include "cluster/remote_worker.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/distributed/messages.h"
#include "core/distributed/shard_ops.h"
#include "core/spectral_angle.h"
#include "runtime/metrics.h"
#include "scp/wire.h"
#include "support/log.h"
#include "support/serialize.h"

namespace rif::cluster {
namespace {

/// Absolute steady-clock ns — the worker's span clock. Shipped raw; the
/// coordinator's ping-echo offset estimate maps it onto its own timeline.
std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Pending-span backlog cap: a coordinator that stops draining telemetry
/// (or a partition that blocks sends) must not grow worker memory without
/// bound. Excess spans are dropped and counted.
constexpr std::size_t kMaxPendingSpans = 8192;

/// Histograms the worker ships with raw buckets (RegistrySnapshot only
/// carries summaries, so the flush walks the live series by name).
constexpr const char* kShippedHistograms[] = {
    "screen_seconds", "cov_seconds", "color_seconds"};

/// One tile the worker has screened and keeps resident for the colour
/// pass. Its pixels stay where they arrived, in the kTileAssign frame.
struct HeldTile {
  scp::WireEnvelope frame;  ///< owns the bytes `view` points into
  core::TileView view;
  bool colored = false;
};

struct WorkerState {
  WorkerState(net::SocketClient& c, const RemoteWorkerOptions& o)
      : client(c), options(o) {}

  net::SocketClient& client;
  RemoteWorkerOptions options;
  NodeId node = kNoNode;
  std::optional<scp::JobStartBody> job;
  std::map<std::int32_t, HeldTile> tiles;  ///< by tile index
  std::optional<core::TransformMsg> transform;
  RemoteWorkerStats stats;

  // Local telemetry: spans buffered for shipment, metrics accumulated in a
  // process-local registry (merged coordinator-side under
  // "remote.worker.<node>.").
  runtime::MetricsRegistry metrics;
  std::vector<scp::TelemetrySpan> pending_spans;
  std::vector<scp::TelemetryLog> pending_logs;
  std::uint64_t flush_index = 0;
  std::uint64_t last_flush_ns = 0;
  std::uint64_t job_start_ns = 0;

  /// Per-thread RIF_LOG capture target: the serve thread's own lines land
  /// here as structured records (bounded; excess dropped and counted) and
  /// ship on the next flush's final batch. Lines still reach stderr.
  void capture_log(const LogRecord& record) {
    if (!options.telemetry) return;
    if (pending_logs.size() >= options.max_pending_logs) {
      metrics.counter("logs_dropped").add();
      return;
    }
    scp::TelemetryLog l;
    l.level = static_cast<std::uint8_t>(record.level);
    l.component = record.component;
    l.message = record.message;
    l.job = record.job >= 0 ? record.job : current_job();
    l.ts_ns = steady_ns();
    pending_logs.push_back(std::move(l));
  }

  /// A kApp envelope to the coordinator, tagged with the job.
  [[nodiscard]] scp::WireEnvelope app_envelope(std::uint32_t type) const {
    scp::WireEnvelope env;
    env.kind = scp::FrameKind::kApp;
    env.src_node = node;
    env.dst_node = 0;
    if (job) env.seq = static_cast<std::uint64_t>(job->job_id);  // job tag
    env.msg_type = type;
    return env;
  }

  /// A reply, its body written straight into the envelope buffer.
  template <typename Msg>
  [[nodiscard]] bool send_app(std::uint32_t type, const Msg& msg) {
    return client.send_frame(app_envelope(type).encode_with<FrameBytes>(
        msg.body_bytes(), [&](FrameWriter& body) { msg.write(body); }));
  }

  [[nodiscard]] bool request_work() {
    return client.send_frame(
        app_envelope(core::kRequestWork).encode<FrameBytes>());
  }

  // --- telemetry recording -------------------------------------------------

  [[nodiscard]] std::int64_t current_job() const {
    return job ? job->job_id : -1;
  }

  /// Record a completed interval as an 'X' span and fold its duration into
  /// the matching latency histogram (when one is wired for the stage).
  void record_span(const char* name, std::uint64_t t0,
                   const char* histogram = nullptr) {
    const std::uint64_t t1 = steady_ns();
    if (histogram != nullptr) {
      metrics.histogram(histogram)
          .observe(static_cast<double>(t1 - t0) / 1e9);
    }
    if (!options.telemetry) return;
    if (pending_spans.size() >= kMaxPendingSpans) {
      metrics.counter("spans_dropped").add();
      return;
    }
    pending_spans.push_back(
        {name, t0, t1 - t0, current_job(), 0.0, 'X'});
  }

  /// Ship pending spans and the cumulative metrics state. `force` is the
  /// job-end path (always flush); the periodic path rate-limits itself.
  /// Send failure is surfaced so the serve loop exits like any other send.
  [[nodiscard]] bool flush_telemetry(bool force) {
    if (!options.telemetry || node == kNoNode) return true;
    const std::uint64_t now = steady_ns();
    const auto period_ns = static_cast<std::uint64_t>(
        options.telemetry_flush_seconds > 0.0
            ? options.telemetry_flush_seconds * 1e9
            : 0.0);
    if (!force && now - last_flush_ns < period_ns) return true;
    if (!force && pending_spans.empty() && pending_logs.empty()) return true;
    last_flush_ns = now;

    const std::size_t batch_cap =
        options.max_batch_spans > 0 ? options.max_batch_spans : 1;
    std::size_t sent = 0;
    do {
      scp::TelemetryBody body;
      body.job_id = current_job();
      body.flush_index = ++flush_index;
      const std::size_t n =
          std::min(batch_cap, pending_spans.size() - sent);
      body.spans.assign(pending_spans.begin() + sent,
                        pending_spans.begin() + sent + n);
      sent += n;
      if (sent >= pending_spans.size()) {
        // Metrics and buffered log records ride on the final batch only:
        // metrics are cumulative totals, so one copy per flush is enough;
        // logs ship once each.
        stats.logs_shipped += pending_logs.size();
        if (!pending_logs.empty()) {
          metrics.counter("logs_shipped")
              .add(static_cast<std::uint64_t>(pending_logs.size()));
        }
        body.logs = std::move(pending_logs);
        pending_logs.clear();
        const runtime::RegistrySnapshot snap = metrics.snapshot();
        for (const auto& [name, value] : snap.counters) {
          body.counters.emplace_back(name, value);
        }
        for (const char* name : kShippedHistograms) {
          const runtime::Histogram* h = metrics.find_histogram(name);
          if (h == nullptr || h->count() == 0) continue;
          scp::TelemetryHistogram th;
          th.name = name;
          th.count = h->count();
          th.sum = h->sum();
          th.min = h->min();
          th.max = h->max();
          th.buckets.resize(scp::kTelemetryHistogramBuckets);
          for (int b = 0; b < runtime::Histogram::kBuckets; ++b) {
            th.buckets[static_cast<std::size_t>(b)] = h->bucket(b);
          }
          body.histograms.push_back(std::move(th));
        }
      }
      scp::WireEnvelope env;
      env.kind = scp::FrameKind::kTelemetry;
      env.src_node = node;
      env.dst_node = 0;
      if (body.job_id >= 0) {
        env.seq = static_cast<std::uint64_t>(body.job_id);
      }
      env.payload = body.encode();
      if (!client.send_frame(env.encode<FrameBytes>())) return false;
      ++stats.telemetry_flushes;
      metrics.counter("telemetry_flushes").add();
    } while (sent < pending_spans.size());
    pending_spans.clear();
    return true;
  }

  // --- application traffic -------------------------------------------------

  [[nodiscard]] bool color_and_send(HeldTile& held) {
    const std::uint64_t t0 = steady_ns();
    const core::ColorTileMsg color =
        core::color_shard(held.view.tile, held.view.pixels.data(), *transform);
    held.colored = true;
    ++stats.tiles_colored;
    metrics.counter("tiles_colored").add();
    record_span("remote.color_shard", t0, "color_seconds");
    return send_app(core::kColorTile, color);
  }

  /// Corrupt body on a well-formed envelope: the frame is garbage but the
  /// stream is intact. Drop it — the coordinator's per-item deadline
  /// re-sends whatever it was carrying. (Contrast with an undecodable
  /// ENVELOPE, where framing itself can no longer be trusted and the serve
  /// loop disconnects.)
  [[nodiscard]] bool on_app(scp::WireEnvelope env) {
    // Bodies decode in place from the frame. A tile is never copied: the
    // worker keeps its frame, and screens and colours the pixels in it.
    switch (env.msg_type) {
      case core::kTileAssign: {
        const auto view = core::TileAssignMsg::try_view(env.body());
        // A tile of another band count, or whose pixels do not fill its
        // geometry, is dropped like an undecodable body.
        if (!view || !view->fills(job->bands)) return true;
        // Ask for the next tile before computing this one — same
        // overlap idiom as the sim WorkerActor.
        if (!request_work()) return false;
        HeldTile& held = tiles[view->tile.index];
        held = {std::move(env), *view, false};  // the view moves with it
        const std::uint64_t t0 = steady_ns();
        const core::ScreenResultMsg result =
            core::screen_shard(held.view.tile, held.view.pixels.data(),
                               job->screening_threshold);
        ++stats.tiles_screened;
        metrics.counter("tiles_screened").add();
        record_span("remote.screen_shard", t0, "screen_seconds");
        if (!send_app(core::kScreenResult, result)) return false;
        // A tile reassigned after the transform went out is coloured
        // immediately; nobody will send kTransform again.
        if (transform && !color_and_send(held)) return false;
        return true;
      }
      case core::kNoMoreTiles:
        return true;
      case core::kCovShard: {
        auto shard = core::CovShardMsg::try_decode(env.body());
        if (!shard ||
            shard->mean.size() != static_cast<std::size_t>(job->bands)) {
          return true;
        }
        const std::uint64_t t0 = steady_ns();
        core::CovSumMsg sum = core::cov_shard_sum(*shard, job->bands);
        ++stats.shards_summed;
        metrics.counter("shards_summed").add();
        record_span("remote.cov_shard_sum", t0, "cov_seconds");
        return send_app(core::kCovSum, sum);
      }
      case core::kTransform: {
        auto decoded = core::TransformMsg::try_decode(env.body());
        if (!decoded || decoded->bands != job->bands) return true;
        transform = std::move(*decoded);
        for (auto& [index, held] : tiles) {
          if (!held.colored && !color_and_send(held)) return false;
        }
        return true;
      }
      default:
        return true;  // unknown application traffic: ignore
    }
  }
};

}  // namespace

/// Routes the serve thread's RIF_LOG lines into WorkerState::capture_log
/// for the life of the loop; restores on every exit path. Per-thread, so
/// in-process workers (spawn_local_worker) never capture each other's or
/// the coordinator's lines.
class LogCaptureScope {
 public:
  explicit LogCaptureScope(WorkerState& st)
      : fn_([&st](const LogRecord& record) { st.capture_log(record); }) {
    log_set_thread_capture(&fn_);
  }
  ~LogCaptureScope() { log_set_thread_capture(nullptr); }
  LogCaptureScope(const LogCaptureScope&) = delete;
  LogCaptureScope& operator=(const LogCaptureScope&) = delete;

 private:
  std::function<void(const LogRecord&)> fn_;
};

RemoteWorkerStats serve_remote_worker(net::SocketClient& client,
                                      const RemoteWorkerOptions& options) {
  WorkerState st{client, options};
  LogCaptureScope log_capture(st);
  scp::WireEnvelope hello;
  hello.kind = scp::FrameKind::kHello;
  hello.payload = scp::HelloBody{}.encode();
  if (!client.send_frame(hello.encode<FrameBytes>())) return st.stats;

  FrameBytes frame;
  while (client.read_frame(frame)) {
    // The service end of this socket is a peer process: a malformed frame
    // means a broken or hostile peer, so disconnect rather than abort.
    std::optional<scp::WireEnvelope> decoded =
        scp::WireEnvelope::try_decode(std::move(frame));
    if (!decoded) return st.stats;
    const scp::WireEnvelope& env = *decoded;
    switch (env.kind) {
      case scp::FrameKind::kWelcome: {
        if (env.body().size() != sizeof(std::int32_t)) return st.stats;
        rif::Reader r(env.body());
        st.node = r.get<std::int32_t>();
        st.stats.node = st.node;
        RIF_LOG_INFO("worker", "leased in as node " << st.node);
        break;
      }
      case scp::FrameKind::kJobStart: {
        auto job = scp::JobStartBody::try_decode(env.body());
        // A corrupt or hostile header: per-shard deadlines recover.
        if (!job || !core::UniqueSet::valid_threshold(
                        job->screening_threshold)) {
          break;
        }
        st.job = *job;
        st.tiles.clear();
        st.transform.reset();
        ++st.stats.jobs;
        st.metrics.counter("jobs").add();
        st.job_start_ns = steady_ns();
        RIF_LOG_INFO("worker", "job " << st.job->job_id << " start ("
                                      << st.job->width << "x"
                                      << st.job->height << "x"
                                      << st.job->bands << ")");
        if (!st.request_work()) return st.stats;
        break;
      }
      case scp::FrameKind::kApp:
        if (!st.job) break;  // stale traffic outside a job: drop
        // Drop frames tagged with another job's id (coordinator fell back
        // or moved on while this one was in flight).
        if (env.seq != static_cast<std::uint64_t>(st.job->job_id)) break;
        if (!st.on_app(std::move(*decoded))) return st.stats;
        break;
      case scp::FrameKind::kJobEnd:
        // Record the whole-job span and force-flush before forgetting the
        // job: the coordinator is about to finish the job and wants its
        // lane complete.
        if (st.job) {
          st.record_span(scp::kJobSpanName, st.job_start_ns);
          RIF_LOG_INFO("worker",
                       "job " << st.job->job_id << " end: screened "
                              << st.stats.tiles_screened << ", summed "
                              << st.stats.shards_summed << ", colored "
                              << st.stats.tiles_colored);
        }
        if (!st.flush_telemetry(/*force=*/true)) return st.stats;
        st.job.reset();
        st.tiles.clear();
        st.transform.reset();
        break;
      case scp::FrameKind::kPing: {
        // Answer even mid-job: the pool evicts workers that go silent, and
        // an idle worker blocked in read_frame has nothing else to say.
        // The payload carries our steady clock so the pool's ping-echo
        // estimator can place our span timestamps on its own timeline.
        scp::WireEnvelope pong;
        pong.kind = scp::FrameKind::kPong;
        pong.src_node = st.node;
        pong.seq = env.seq;  // echo; the pool RTT-matches by seq
        rif::Writer w;
        w.put(steady_ns());
        pong.payload = std::move(w).take();
        if (!client.send_frame(pong.encode<FrameBytes>())) return st.stats;
        ++st.stats.pings_answered;
        st.metrics.counter("pings_answered").add();
        break;
      }
      case scp::FrameKind::kGoodbye:
        st.stats.clean_exit = true;
        return st.stats;
      default:
        break;  // actor-runtime kinds never reach workers
    }
    // Periodic shipment rides the frame loop: between frames the worker is
    // blocked in read_frame with nothing to say anyway.
    if (!st.flush_telemetry(/*force=*/false)) return st.stats;
  }
  return st.stats;
}

}  // namespace rif::cluster
