#include "layers.h"

#include <sys/socket.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/distributed/messages.h"
#include "core/distributed/shard_ops.h"
#include "core/parallel/parallel_pct.h"
#include "core/pct.h"
#include "hsi/chunked_reader.h"
#include "hsi/partition.h"
#include "linalg/jacobi_eig.h"
#include "linalg/stats.h"
#include "net/socket_transport.h"
#include "scp/wire.h"
#include "service/remote_exec.h"

namespace perfbench {

using namespace rif;

namespace {

constexpr double kMB = 1e6;
/// Covariance shards of the protocol replay: the remote workload's worker
/// count, so its replay follows the job's own message sequence.
constexpr int kReplayShards = 2;

/// Wire traffic of one protocol replay.
struct Replay {
  hsi::RgbImage composite;
  double encode_ms = 0.0;     ///< WireEnvelope::encode
  double decode_ms = 0.0;     ///< WireEnvelope::try_decode
  double msg_codec_ms = 0.0;  ///< TileAssignMsg encode + try_decode
  double screen_ms = 0.0;     ///< core::screen_shard, all tiles
  double cov_ms = 0.0;        ///< core::cov_shard_sum, all shards
  double color_ms = 0.0;      ///< core::color_shard, all tiles
  double eigen_ms = 0.0;      ///< linalg::jacobi_eigen
  int jacobi_sweeps = 0;
  std::uint64_t wire_bytes = 0;  ///< encoded envelope bytes, all messages
  bool ok = true;
};

/// Replays the remote job's application messages in process: every
/// message the coordinator and its workers exchange (tile assignments,
/// screen results, covariance shards and sums, the transform broadcast,
/// colour tiles) is built, framed in a WireEnvelope, encoded, decoded and
/// handed to the same shard functions the workers run, in the
/// coordinator's merge order.
Replay replay_protocol(const Inputs& in, SpanLog& log, int request) {
  Replay out;
  const Workload& w = in.w;
  const hsi::ImageCube& cube = in.scene->cube;
  const double threshold = 0.05;
  const int bands = kBands;

  const auto ship = [&](const scp::Message& msg) -> std::optional<scp::Message> {
    std::vector<std::uint8_t> bytes;
    {
      ScopedSpan s(&log, "scp.encode", request);
      scp::WireEnvelope env;
      env.kind = scp::FrameKind::kApp;
      env.seq = 1;
      env.msg_type = msg.type;
      env.declared = msg.declared_bytes;
      env.payload = msg.payload;
      bytes = env.encode();
      out.encode_ms += s.close();
    }
    out.wire_bytes += bytes.size();
    std::optional<scp::WireEnvelope> env;
    {
      ScopedSpan s(&log, "scp.decode", request);
      env = scp::WireEnvelope::try_decode(bytes);
      out.decode_ms += s.close();
    }
    if (!env) return std::nullopt;
    return scp::Message{env->msg_type, std::move(env->payload), env->declared};
  };

  const std::vector<hsi::Tile> tiles = hsi::partition_rows(w.shape(), w.tiles());
  std::vector<std::vector<float>> held(tiles.size());
  core::UniqueSet global(bands, threshold);
  for (const hsi::Tile& tile : tiles) {
    core::TileAssignMsg assign;
    assign.tile = core::WireTile::from(tile);
    const float* first = cube.pixel(tile.first_flat_index()).data();
    assign.data.assign(first, first + tile.pixels() * tile.bands);
    scp::Message msg;
    {
      ScopedSpan s(&log, "scp.msg_encode", request);
      msg = assign.encode(0);
      out.msg_codec_ms += s.close();
    }
    const auto rx = ship(msg);
    std::optional<core::TileAssignMsg> got;
    if (rx) {
      ScopedSpan s(&log, "scp.msg_decode", request);
      got = core::TileAssignMsg::try_decode(*rx);
      out.msg_codec_ms += s.close();
    }
    if (!got) {
      out.ok = false;
      return out;
    }
    core::ScreenResultMsg result;
    {
      ScopedSpan s(&log, "distributed.screen_shard", request);
      result = core::screen_shard(got->tile, got->data.data(), threshold);
      out.screen_ms += s.close();
    }
    const auto rx_result = ship(result.encode(0));
    auto back = rx_result ? core::ScreenResultMsg::try_decode(*rx_result)
                          : std::nullopt;
    if (!back) {
      out.ok = false;
      return out;
    }
    ScopedSpan s(&log, "distributed.merge", request);
    global.merge(core::UniqueSet::from_flat(bands, threshold,
                                            std::move(back->vectors)));
    held[static_cast<std::size_t>(tile.index)] = std::move(got->data);
  }

  linalg::MeanAccumulator mean_acc(bands);
  for (std::size_t i = 0; i < global.size(); ++i) mean_acc.add(global.member(i));
  const std::vector<double> mean = mean_acc.mean();
  const auto chunks = hsi::partition_range(
      static_cast<std::int64_t>(global.size()), kReplayShards);
  linalg::CovarianceAccumulator total(bands, mean);
  for (int sh = 0; sh < kReplayShards; ++sh) {
    core::CovShardMsg shard;
    shard.shard_index = static_cast<std::uint64_t>(sh);
    shard.shard_count = static_cast<std::uint64_t>(chunks[sh].size());
    shard.mean = mean;
    for (std::int64_t i = chunks[sh].begin; i < chunks[sh].end; ++i) {
      const auto m = global.member(static_cast<std::size_t>(i));
      shard.vectors.insert(shard.vectors.end(), m.begin(), m.end());
    }
    const auto rx = ship(shard.encode(0));
    const auto got = rx ? core::CovShardMsg::try_decode(*rx) : std::nullopt;
    if (!got) {
      out.ok = false;
      return out;
    }
    core::CovSumMsg sum;
    {
      ScopedSpan s(&log, "distributed.cov_shard", request);
      sum = core::cov_shard_sum(*got, bands);
      out.cov_ms += s.close();
    }
    const auto rx_sum = ship(sum.encode(0));
    const auto back = rx_sum ? core::CovSumMsg::try_decode(*rx_sum) : std::nullopt;
    if (!back) {
      out.ok = false;
      return out;
    }
    total.merge(linalg::CovarianceAccumulator::decode(back->accumulator));
  }

  linalg::EigenResult eig;
  {
    const linalg::Matrix cov = total.covariance();
    ScopedSpan s(&log, "linalg.eigen", request);
    eig = linalg::jacobi_eigen(cov, linalg::JacobiOptions{});
    out.eigen_ms = s.close();
  }
  out.jacobi_sweeps = eig.sweeps;
  core::TransformMsg tm;
  tm.components = 3;
  tm.bands = bands;
  const linalg::Matrix t = core::transform_matrix(eig.vectors, tm.components);
  tm.matrix.assign(t.data(), t.data() + t.rows() * t.cols());
  tm.mean = mean;
  for (const auto& sc : core::scales_from_eigenvalues(eig.values)) {
    tm.scale_mean.push_back(sc.mean);
    tm.scale_gain.push_back(sc.gain);
  }
  std::optional<core::TransformMsg> transform;
  for (int sh = 0; sh < kReplayShards; ++sh) {  // broadcast to each worker
    const auto rx = ship(tm.encode(0));
    transform = rx ? core::TransformMsg::try_decode(*rx) : std::nullopt;
    if (!transform) {
      out.ok = false;
      return out;
    }
  }

  out.composite = hsi::RgbImage(w.width, w.height);
  for (const hsi::Tile& tile : tiles) {
    core::ColorTileMsg color;
    {
      ScopedSpan s(&log, "distributed.color_shard", request);
      color = core::color_shard(core::WireTile::from(tile),
                                held[static_cast<std::size_t>(tile.index)].data(),
                                *transform);
      out.color_ms += s.close();
    }
    const auto rx = ship(color.encode(0));
    const auto back = rx ? core::ColorTileMsg::try_decode(*rx) : std::nullopt;
    if (!back || back->rgb.size() != static_cast<std::size_t>(tile.pixels()) * 3) {
      out.ok = false;
      return out;
    }
    std::copy(back->rgb.begin(), back->rgb.end(),
              out.composite.data.begin() + tile.first_flat_index() * 3);
  }
  return out;
}

/// Round trips through a SocketServer echo session over a socketpair.
struct FrameProbe {
  double small_rtt_us = 0.0;  ///< median, 64-byte frames
  double tile_mb_s = 0.0;     ///< tile-sized frames, bytes both ways / wall
};

FrameProbe probe_frames(std::size_t tile_bytes, SpanLog& log, int request) {
  FrameProbe out;
  net::SocketServer server;
  server.start([&server](net::SessionId s,
                         std::vector<std::uint8_t> f) { server.send(s, f); },
               [](net::SessionId) {});
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return out;
  server.adopt(sv[0]);
  net::SocketClient client;
  client.adopt(sv[1]);
  std::vector<std::uint8_t> reply;
  const auto round_trip = [&](const std::vector<std::uint8_t>& frame) {
    return client.send_frame(frame) && client.read_frame(reply) &&
           reply.size() == frame.size();
  };
  {
    ScopedSpan s(&log, "net.small_frames", request);
    const std::vector<std::uint8_t> small(64, 0x5a);
    std::vector<double> us;
    for (int i = 0; i < 200; ++i) {
      const auto t = Clock::now();
      if (!round_trip(small)) break;
      us.push_back(ms_since(t) * 1e3);
    }
    out.small_rtt_us = median(us);
  }
  {
    ScopedSpan s(&log, "net.tile_frames", request);
    const std::vector<std::uint8_t> big(tile_bytes, 0xa5);
    constexpr int kTrips = 4;
    int done = 0;
    const auto t = Clock::now();
    for (; done < kTrips && round_trip(big); ++done) {
    }
    const double secs = ms_since(t) / 1e3;
    if (done > 0 && secs > 0.0) {
      out.tile_mb_s = 2.0 * static_cast<double>(tile_bytes) * done / kMB / secs;
    }
  }
  client.close();
  server.stop();
  return out;
}

}  // namespace

LayerSample kernel_costs() {
  constexpr double b = kBands;
  constexpr double comps = 3;
  constexpr double lanes = 8;  // linalg::kernels::kScreenLanes
  constexpr double rows = linalg::CovarianceAccumulator::kBlockRows;
  const double tri = b * (b + 1) / 2;
  return {
      // dot8: one candidate against one 8-member block.
      {"linalg.screen_flop_per_call", 2 * lanes * b},
      {"linalg.screen_bytes_per_call", (lanes * b + b) * 4},
      // rank_k_update of the packed triangle by one block of rows.
      {"linalg.moment_flop_per_call", 2 * rows * tri},
      {"linalg.moment_bytes_per_call", rows * b * 8 + 2 * tri * 8},
      // project: one pixel through the truncated transform.
      {"linalg.project_flop_per_call", 2 * comps * b},
      {"linalg.project_bytes_per_call", b * 4 + comps * 4},
  };
}

LayerSample probe_layers(const Inputs& in, core::ThreadPool& pool,
                         SpanLog& log, int request, std::string* failure) {
  LayerSample m;
  const Workload& w = in.w;
  const hsi::ImageCube& cube = in.scene->cube;
  ScopedSpan whole(&log, "probe", request);

  // core: the fused engine whole, then its three stages one call each.
  core::ParallelPctConfig pc;
  pc.tiles = w.tiles();
  core::PctResult fused;
  {
    ScopedSpan s(&log, "core.fuse", request);
    fused = core::fuse_parallel_fused(cube, pool, pc);
    m["core.fuse_ms"] = s.close();
  }
  const std::vector<hsi::Tile> tiles = hsi::partition_rows(w.shape(), w.tiles());
  std::vector<core::UniqueSet> sets;
  {
    ScopedSpan s(&log, "core.screen", request);
    for (const hsi::Tile& t : tiles) {
      sets.push_back(core::screen_range(cube, t.first_flat_index(),
                                        t.end_flat_index(), 0.05));
    }
    m["core.screen_ms"] = s.close();
  }
  {
    ScopedSpan s(&log, "core.moment", request);
    linalg::MomentAccumulator acc(kBands, fused.mean);
    for (const core::UniqueSet& set : sets) {
      acc.add_block(set.flat().data(), static_cast<int>(set.size()));
    }
    m["core.moment_ms"] = s.close();
  }
  {
    const linalg::Matrix t = core::transform_matrix(fused.eigenvectors, 3);
    const auto scales = core::scales_from_eigenvalues(fused.eigenvalues);
    std::vector<std::vector<float>> planes(
        3, std::vector<float>(static_cast<std::size_t>(w.pixels())));
    hsi::RgbImage composite(w.width, w.height);
    ScopedSpan s(&log, "core.transform", request);
    core::transform_and_map_range(cube, t, fused.mean, scales, planes,
                                  composite, 0, w.pixels());
    m["core.transform_ms"] = s.close();
  }

  // hsi: one pass over the cube file at the streaming chunk geometry.
  {
    auto reader = hsi::ChunkedCubeReader::open(in.cube_path);
    if (!reader) {
      *failure = "cannot open " + in.cube_path;
      return m;
    }
    std::vector<float> buf;
    std::uint64_t bytes = 0;
    ScopedSpan s(&log, "hsi.read", request);
    for (int line = 0; line < reader->lines(); line += w.chunk_lines) {
      if (!reader->read_lines(line, std::min(w.chunk_lines, reader->lines() - line),
                              buf)) {
        *failure = "read_lines failed";
        return m;
      }
      bytes += buf.size() * sizeof(float);
    }
    m["hsi.read_mb_s"] = static_cast<double>(bytes) / kMB / (s.close() / 1e3);
  }

  // stream: the bare out-of-core engine over the same file.
  {
    ScopedSpan s(&log, "stream.fuse", request);
    const auto r = stream::fuse_streaming(in.cube_path, pool, streaming_config(w));
    m["stream.fuse_ms"] = s.close();
    if (!r) {
      *failure = "fuse_streaming failed";
      return m;
    }
    m["hsi.bytes_read_per_job"] = static_cast<double>(r->stats.bytes_read);
    m["stream.chunks"] = r->stats.chunks;
    m["stream.peak_buffer_mb"] = static_cast<double>(r->stats.peak_buffer_bytes) / kMB;
    m["stream.reader_stall_ms"] = r->stats.reader_stall_seconds * 1e3;
    m["stream.compute_stall_ms"] = r->stats.compute_stall_seconds * 1e3;
  }

  // scp / core/distributed / linalg eigen: the remote job's messages.
  {
    const Replay r = replay_protocol(in, log, request);
    if (!r.ok) {
      *failure = "protocol replay could not decode its own messages";
      return m;
    }
    if (w.kind == Kind::kRemote && r.composite.data != in.reference.data) {
      *failure = "protocol replay composite differs from the reference";
    }
    const double mb = static_cast<double>(r.wire_bytes) / kMB;
    m["scp.encode_ms_per_mb"] = r.encode_ms / mb;
    m["scp.decode_ms_per_mb"] = r.decode_ms / mb;
    m["scp.msg_codec_ms"] = r.msg_codec_ms;
    m["replay.wire_bytes"] = static_cast<double>(r.wire_bytes);
    m["replay.codec_ms"] = r.encode_ms + r.decode_ms;
    m["distributed.screen_shard_ms"] = r.screen_ms;
    m["distributed.cov_shard_ms"] = r.cov_ms;
    m["distributed.color_shard_ms"] = r.color_ms;
    m["linalg.eigen_ms"] = r.eigen_ms;
    m["linalg.jacobi_sweeps"] = r.jacobi_sweeps;
  }

  // net: framed round trips, small and tile-sized.
  {
    const FrameProbe f = probe_frames(tiles.front().bytes(), log, request);
    m["net.frame_rtt_us"] = f.small_rtt_us;
    m["net.frame_mb_s"] = f.tile_mb_s;
  }

  // cluster: attach two in-process workers, as run() does per job.
  {
    auto remote = std::make_unique<cluster::RemoteWorkerPool>();
    ScopedSpan s(&log, "cluster.attach", request);
    remote->start(1);
    for (int i = 0; i < 2; ++i) remote->spawn_local_worker();
    const int attached = remote->wait_for_workers(2, 10.0);
    m["cluster.attach_ms"] = s.close();
    if (attached != 2) *failure = "remote workers did not attach";
    ScopedSpan stop(&log, "cluster.stop", request);
    remote.reset();
  }

  // sim: the same job in CostOnly mode — virtual timeline and scheduler,
  // no pixels, no remote plane.
  {
    service::ServiceConfig c = service_config(w);
    c.remote_workers = 0;
    c.remote_spawn_local = false;
    c.worker_nodes = std::max(c.worker_nodes, w.workers);
    service::FusionService svc(c);
    service::JobRequest r;
    r.tenant = "bench";
    r.config.workers = w.workers;
    r.config.tiles_per_worker = w.tiles_per_worker;
    r.config.shape = w.shape();
    ScopedSpan s(&log, "sim.costonly_run", request);
    const service::SubmitResult sub = svc.submit(std::move(r));
    const service::ServiceReport rep = svc.run();
    m["sim.costonly_run_ms"] = s.close();
    if (!sub.accepted() || rep.jobs_completed != 1) {
      *failure = "CostOnly job did not complete";
    }
  }
  return m;
}

BareEngine::BareEngine(const Inputs& in, core::ThreadPool& pool)
    : in_(in), pool_(pool) {
  if (in.w.kind == Kind::kRemote) {
    remote_ = std::make_unique<cluster::RemoteWorkerPool>();
    remote_->start(1);
    for (int i = 0; i < in.w.remote_workers; ++i) remote_->spawn_local_worker();
    remote_->wait_for_workers(in.w.remote_workers, 10.0);
  }
}

BareEngine::~BareEngine() = default;

double BareEngine::run(SpanLog* log, int request, std::string* failure) {
  const Workload& w = in_.w;
  hsi::RgbImage composite;
  ScopedSpan s(log, "engine.bare", request);
  const auto t0 = Clock::now();
  switch (w.kind) {
    case Kind::kResident: {
      core::ParallelPctConfig pc;
      pc.tiles = w.tiles();
      composite = core::fuse_parallel_fused(in_.scene->cube, pool_, pc).composite;
      break;
    }
    case Kind::kStream: {
      auto r = stream::fuse_streaming(in_.cube_path, pool_, streaming_config(w));
      if (r) composite = std::move(r->composite);
      break;
    }
    case Kind::kRemote: {
      service::RemoteExecParams p;
      p.cube = &in_.scene->cube;
      p.total_tiles = w.tiles();
      p.job_id = next_job_++;
      std::vector<int> workers;
      for (int i = 0; i < remote_->worker_count(); ++i) workers.push_back(i);
      auto r = service::execute_remote_job(*remote_, workers, p);
      if (r.completed) composite = std::move(r.composite);
      break;
    }
  }
  const double ms = ms_since(t0);
  if (composite.data != in_.reference.data) {
    *failure = "bare engine composite differs from the reference";
  }
  return ms;
}

}  // namespace perfbench
