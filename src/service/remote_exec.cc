#include "service/remote_exec.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <utility>

#include "core/distributed/fusion_coordinator.h"
#include "core/distributed/messages.h"
#include "obs/span_tracer.h"
#include "scp/wire.h"
#include "support/check.h"
#include "support/log.h"

namespace rif::service {
namespace {

using Clock = std::chrono::steady_clock;

struct Coordinator {
  Coordinator(cluster::RemoteWorkerPool& pool_in, const RemoteExecParams& p_in,
              const hsi::CubeShape& shape)
      : pool(pool_in),
        p(p_in),
        fusion(shape, p.cube, p.total_tiles, p.screening_threshold,
               p.output_components, out) {}

  cluster::RemoteWorkerPool& pool;
  const RemoteExecParams& p;
  RemoteExecResult out;
  /// The manager steps themselves; this struct only moves their messages.
  core::FusionCoordinator fusion;

  std::vector<int> live;  ///< surviving pool worker indices
  // holder[t] is the worker whose memory holds tile t's pixels (it will
  // colour it later).
  std::vector<int> holder;
  int next_tile = 0;
  int rr = 0;  ///< round-robin cursor for failure reassignment

  // Covariance shards are retained so a dead worker's shards can be re-sent
  // verbatim.
  std::vector<core::CovShardMsg> shard_msgs;
  std::map<int, std::deque<int>> outstanding;  ///< worker -> shard FIFO
  bool transform_sent = false;

  // Per-item supervision. Every assigned-but-unanswered tile and every
  // outstanding covariance shard carries its own deadline; there is no
  // global silence clock for one chatty worker to reset on a hung one's
  // behalf. attempts counts deadline EXPIRIES (disconnect requeues re-arm
  // without charging the budget — a crash is not the new worker's fault).
  struct Track {
    Clock::time_point deadline;
    int attempts = 0;
    bool active = false;
  };
  std::vector<Track> tile_track;
  std::vector<Track> shard_track;

  void arm(Track& track) {
    if (p.shard_deadline_seconds <= 0.0) return;
    double d = p.shard_deadline_seconds;
    for (int i = 0; i < track.attempts; ++i) d *= p.resend_backoff;
    track.deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(d));
    track.active = true;
  }

  /// Next live worker, preferring one other than `avoid`.
  [[nodiscard]] int pick_other(int avoid) {
    int v = live[static_cast<std::size_t>(rr++) % live.size()];
    if (v == avoid && live.size() > 1) {
      v = live[static_cast<std::size_t>(rr++) % live.size()];
    }
    return v;
  }

  /// Earliest active per-item deadline, or nullopt when nothing is armed.
  [[nodiscard]] std::optional<Clock::time_point> next_deadline() const {
    std::optional<Clock::time_point> next;
    const auto consider = [&](const Track& t) {
      if (t.active && (!next || t.deadline < *next)) next = t.deadline;
    };
    for (const Track& t : tile_track) consider(t);
    for (const Track& t : shard_track) consider(t);
    return next;
  }

  /// Re-send every overdue item; false when an item's budget ran out and
  /// the job must fall back.
  [[nodiscard]] bool check_deadlines() {
    if (p.shard_deadline_seconds <= 0.0 || live.empty()) return true;
    const auto now = Clock::now();
    for (int t = 0; t < static_cast<int>(tile_track.size()); ++t) {
      Track& track = tile_track[static_cast<std::size_t>(t)];
      if (!track.active || now < track.deadline) continue;
      if (++track.attempts > p.resend_limit) return give_up("tile", t);
      const int v = pick_other(holder[t]);
      ++out.tiles_resent;
      if (p.metrics) p.metrics->counter("remote.tile_resends").add(1);
      RIF_TRACE_INSTANT("remote.resend_tile");
      RIF_LOG_EVERY(::rif::LogLevel::kWarn, "remote", 1.0,
                    "job " << p.job_id << ": tile " << t << " overdue (attempt "
                           << track.attempts << "); re-sending to worker "
                           << v);
      assign_tile(v, t);  // re-arms with the backed-off deadline
    }
    for (int s = 0; s < static_cast<int>(shard_track.size()); ++s) {
      Track& track = shard_track[static_cast<std::size_t>(s)];
      if (!track.active || now < track.deadline) continue;
      if (++track.attempts > p.resend_limit) return give_up("shard", s);
      // Move the shard from whichever worker holds it to a fresh one.
      int owner = -1;
      for (auto& [w, fifo] : outstanding) {
        auto pos = std::find(fifo.begin(), fifo.end(), s);
        if (pos != fifo.end()) {
          fifo.erase(pos);
          owner = w;
          break;
        }
      }
      const int v = pick_other(owner);
      outstanding[v].push_back(s);
      ++out.shards_resent;
      if (p.metrics) p.metrics->counter("remote.shard_resends").add(1);
      RIF_TRACE_INSTANT("remote.resend_shard");
      RIF_LOG_EVERY(::rif::LogLevel::kWarn, "remote", 1.0,
                    "job " << p.job_id << ": cov shard " << s
                           << " overdue (attempt " << track.attempts
                           << "); re-sending to worker " << v);
      send_app(v, core::kCovShard, shard_msgs[static_cast<std::size_t>(s)]);
      arm(track);
    }
    return true;
  }

  bool give_up(const char* what, int index) {
    ++out.deadline_giveups;
    if (p.metrics) p.metrics->counter("remote.deadline_giveups").add(1);
    RIF_TRACE_INSTANT("remote.deadline_giveup");
    RIF_LOG_WARN("remote", "job " << p.job_id << ": " << what << " " << index
                                  << " exhausted its resend budget; falling "
                                     "back to the host pool");
    return false;
  }

  [[nodiscard]] bool is_live(int w) const {
    return std::find(live.begin(), live.end(), w) != live.end();
  }

  /// A kApp envelope to worker `w`, tagged with this job (see wire.h).
  [[nodiscard]] scp::WireEnvelope app_envelope(int w,
                                               std::uint32_t type) const {
    scp::WireEnvelope env;
    env.kind = scp::FrameKind::kApp;
    env.dst_node = pool.node_of(w);
    env.seq = static_cast<std::uint64_t>(p.job_id);
    env.msg_type = type;
    return env;
  }

  /// `msg` (a CovShardMsg or TransformMsg) to worker `w`, its body
  /// written straight into the envelope buffer.
  template <typename Msg>
  void send_app(int w, std::uint32_t type, const Msg& msg) {
    pool.send(w, app_envelope(w, type).encode_with<FrameBytes>(
                     msg.body_bytes(), [&](FrameWriter& body) {
                       msg.write(body);
                     }));
  }

  void send_control(int w, scp::FrameKind kind,
                    std::vector<std::uint8_t> payload = {}) {
    scp::WireEnvelope env;
    env.kind = kind;
    env.dst_node = pool.node_of(w);
    env.payload = std::move(payload);
    pool.send(w, env);
  }

  void assign_tile(int w, int t) {
    holder[t] = w;
    // The pixels go from the cube straight into the envelope buffer: their
    // one copy on this side of the hop.
    const std::span<const float> px = fusion.pixels(t);
    pool.send(w, app_envelope(w, core::kTileAssign)
                     .encode_with<FrameBytes>(
                         core::TileAssignMsg::body_bytes(px.size()),
                         [&](FrameWriter& body) {
                           core::TileAssignMsg::write(body, fusion.tile(t),
                                                      px);
                         }));
    arm(tile_track[static_cast<std::size_t>(t)]);
  }

  void on_request_work(int w) {
    if (next_tile < fusion.tile_count()) {
      assign_tile(w, next_tile++);
    } else {
      pool.send(w, app_envelope(w, core::kNoMoreTiles));
    }
  }

  void on_screen_result(int w, std::span<const std::uint8_t> body) {
    // Bodies off the wire are untrusted: a corrupt or refused one is
    // dropped (the per-item deadline re-sends the work), never decoded
    // with aborts.
    auto result = core::ScreenResultMsg::try_decode(body);
    if (!result) return;
    const int t = result->tile.index;
    const auto intake = fusion.accept_screen(std::move(*result));
    if (intake == core::FusionCoordinator::Intake::kRefused) return;
    holder[t] = w;
    // Pre-transform, a screen result settles the tile's outstanding work
    // (nothing more is owed until the transform broadcast re-arms it for
    // colour). Post-transform the colour reply is still owed: stay armed.
    if (!transform_sent) tile_track[static_cast<std::size_t>(t)].active = false;
    if (intake == core::FusionCoordinator::Intake::kAccepted &&
        fusion.screening_done()) {
      start_covariance_phase();
    }
  }

  void start_covariance_phase() {
    shard_msgs = fusion.covariance_shards(out.shards);
    shard_track.assign(shard_msgs.size(), {});
    for (int s = 0; s < out.shards; ++s) {
      const int w = live[static_cast<std::size_t>(s) % live.size()];
      outstanding[w].push_back(s);
      send_app(w, core::kCovShard, shard_msgs[static_cast<std::size_t>(s)]);
      arm(shard_track[static_cast<std::size_t>(s)]);
    }
  }

  void on_cov_sum(int w, std::span<const std::uint8_t> body) {
    auto sum = core::CovSumMsg::try_decode(body);
    if (!sum || sum->shard_index >= shard_msgs.size()) return;
    // Only the worker the shard is outstanding at may answer it: a stale
    // reply from a worker the shard was moved away from is dropped.
    const int s = static_cast<int>(sum->shard_index);
    auto it = outstanding.find(w);
    if (it == outstanding.end()) return;
    auto pos = std::find(it->second.begin(), it->second.end(), s);
    if (pos == it->second.end()) return;
    // A sum that does not decode against its shard is refused while the
    // shard can still be re-sent.
    if (!fusion.accept_cov_sum(*sum)) return;
    it->second.erase(pos);
    shard_track[static_cast<std::size_t>(s)].active = false;
    if (fusion.covariance_done()) broadcast_transform();
  }

  void broadcast_transform() {
    const core::TransformMsg tm = fusion.transform();
    transform_sent = true;
    for (const int w : live) send_app(w, core::kTransform, tm);
    // Every uncoloured tile is outstanding again — its holder owes a
    // colour reply now that the transform is out.
    for (int t = 0; t < fusion.tile_count(); ++t) {
      if (!fusion.colored(t)) arm(tile_track[static_cast<std::size_t>(t)]);
    }
  }

  void on_color_tile(std::span<const std::uint8_t> body) {
    auto color = core::ColorTileMsg::try_decode(body);
    if (!color || !fusion.accept_color(*color)) return;
    tile_track[static_cast<std::size_t>(color->tile.index)].active = false;
  }

  void on_closed(int w) {
    if (!is_live(w)) return;
    live.erase(std::remove(live.begin(), live.end(), w), live.end());
    ++out.worker_disconnects;
    RIF_LOG_WARN("remote", "worker " << w << " disconnected mid-job "
                                    << p.job_id << "; re-queueing its work");
    if (live.empty()) return;

    // Re-send any covariance shards it had not answered.
    if (auto it = outstanding.find(w); it != outstanding.end()) {
      for (const int s : it->second) {
        const int v = live[static_cast<std::size_t>(rr++) % live.size()];
        outstanding[v].push_back(s);
        send_app(v, core::kCovShard, shard_msgs[static_cast<std::size_t>(s)]);
        // Fresh clock, same attempt count: a crash does not charge the
        // item's resend budget.
        arm(shard_track[static_cast<std::size_t>(s)]);
      }
      outstanding.erase(it);
    }

    // Re-assign every tile whose only copy lived in its memory. Survivors
    // re-screen (the duplicate result is dropped) and — once they hold the
    // transform — colour it; merge/colour order is unaffected.
    for (int t = 0; t < fusion.tile_count(); ++t) {
      if (holder[t] != w || fusion.colored(t)) continue;
      const int v = live[static_cast<std::size_t>(rr++) % live.size()];
      ++out.tiles_requeued;
      assign_tile(v, t);
    }
  }
};

}  // namespace

RemoteExecResult execute_remote_job(cluster::RemoteWorkerPool& pool,
                                    const std::vector<int>& workers,
                                    const RemoteExecParams& p) {
  RIF_CHECK_MSG(p.cube != nullptr, "remote execution requires a cube");
  const hsi::CubeShape shape{p.cube->width(), p.cube->height(),
                             p.cube->bands()};
  Coordinator c{pool, p, shape};
  for (const int w : workers) {
    if (pool.alive(w)) c.live.push_back(w);
  }
  if (c.live.empty()) return std::move(c.out);

  const int total = c.fusion.tile_count();
  c.out.shards = static_cast<int>(c.live.size());
  c.holder.assign(total, -1);
  c.tile_track.assign(static_cast<std::size_t>(total), {});

  const scp::JobStartBody body{p.job_id,
                               shape.width,
                               shape.height,
                               shape.bands,
                               p.screening_threshold,
                               p.output_components};
  for (const int w : c.live) {
    c.send_control(w, scp::FrameKind::kJobStart, body.encode());
  }

  // The job deadline is a wall clock from job start — not a silence clock
  // that activity resets, so a hung item is bounded by its OWN deadline
  // (check_deadlines) however chatty the rest of the pool is.
  const auto job_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(p.deadline_seconds));
  while (c.out.tiles_colored < total) {
    const auto now = Clock::now();
    if (now >= job_deadline) {
      RIF_LOG_WARN("remote", "job " << p.job_id
                                    << " hit its wall deadline; falling "
                                       "back to the host pool");
      return std::move(c.out);  // completed stays false: host fallback
    }
    if (!c.check_deadlines()) return std::move(c.out);  // budget exhausted
    // Wake for whichever comes first: a pool event, the job deadline, or
    // the nearest per-item deadline.
    double wait = std::chrono::duration<double>(job_deadline - now).count();
    if (const auto next = c.next_deadline()) {
      wait = std::min(wait,
                      std::chrono::duration<double>(*next - now).count());
    }
    auto ev = c.pool.poll_event(std::max(wait, 1e-3));
    if (!ev) {
      if (c.live.empty()) return std::move(c.out);
      continue;
    }
    if (ev->kind == cluster::RemoteWorkerPool::Event::Kind::kClosed) {
      c.on_closed(ev->worker);
      if (c.live.empty()) return std::move(c.out);
      continue;
    }
    if (!c.is_live(ev->worker) || ev->env.kind != scp::FrameKind::kApp) {
      continue;
    }
    // Jobs run serially over a shared pool: a frame still in flight from an
    // earlier job (requeue or deadline fallback) carries that job's tag and
    // must not be consumed by this coordinator.
    if (ev->env.seq != static_cast<std::uint64_t>(p.job_id)) continue;
    // Bodies decode in place from the frame the event owns.
    const std::span<const std::uint8_t> body = ev->env.body();
    switch (ev->env.msg_type) {
      case core::kRequestWork:
        c.on_request_work(ev->worker);
        break;
      case core::kScreenResult:
        c.on_screen_result(ev->worker, body);
        break;
      case core::kCovSum:
        c.on_cov_sum(ev->worker, body);
        break;
      case core::kColorTile:
        c.on_color_tile(body);
        break;
      default:
        break;
    }
  }

  for (const int w : c.live) c.send_control(w, scp::FrameKind::kJobEnd);
  c.out.completed = true;
  return std::move(c.out);
}

}  // namespace rif::service
