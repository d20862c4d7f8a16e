// Seeded mutation fuzzing of the socket plane's receive path. Frames of the
// six fusion messages, encoded the way the coordinator and the worker encode
// them, are flipped, truncated and spliced, and every mutant runs the whole
// trust-boundary chain: FrameAssembler -> WireEnvelope::try_decode -> every
// message's decoder, all decoding in place from the frame (a tile through
// the view the worker screens and colours it by). A decoded
// tile, shard or transform that a worker would accept then runs through
// the worker's shard op. The invariant is that nothing aborts and nothing
// reads out of bounds (the ASan leg checks the second half). A fixed seed
// and budget keep the run deterministic and short. The later cases pin the
// shard-message shape checks, feed the coordinator's merge members of
// extreme magnitude, and mutate cube headers through the .hdr parser, a
// worker's telemetry batch, an encoded covariance accumulator and the ops
// plane's request text.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "cluster/remote_worker.h"
#include "core/distributed/fusion_coordinator.h"
#include "core/distributed/messages.h"
#include "core/distributed/shard_ops.h"
#include "core/spectral_angle.h"
#include "hsi/cube_io.h"
#include "linalg/stats.h"
#include "net/frame.h"
#include "net/socket_transport.h"
#include "obs/ops_server.h"
#include "scp/wire.h"
#include "support/rng.h"

namespace rif {
namespace {

constexpr int kBudget = 1500;  ///< mutants per captured frame and level

const core::WireTile kTile{2, 6, 3, 8, 16};

std::vector<float> tile_pixels() {
  Rng rng(11);
  std::vector<float> px(static_cast<std::size_t>(kTile.pixels()) *
                        static_cast<std::size_t>(kTile.bands));
  for (float& v : px) v = static_cast<float>(rng.uniform(0.0, 1.0));
  return px;
}

scp::WireEnvelope app_envelope(std::uint32_t type) {
  scp::WireEnvelope env;
  env.kind = scp::FrameKind::kApp;
  env.src_node = 1;
  env.seq = 42;
  env.msg_type = type;
  return env;
}

/// The coordinator's tile assignment: pixels written straight into the
/// envelope buffer.
std::vector<std::uint8_t> tile_assign_body() {
  const std::vector<float> px = tile_pixels();
  Writer w;
  core::TileAssignMsg::write(w, kTile, px);
  return std::move(w).take();
}

/// The worker's reply to that assignment.
std::vector<std::uint8_t> screen_result_body() {
  const std::vector<float> px = tile_pixels();
  return core::screen_shard(kTile, px.data(), 0.05).encode(0).payload;
}

/// A covariance shard of the tile's first four pixels about their mean.
core::CovShardMsg cov_shard() {
  const std::vector<float> px = tile_pixels();
  core::CovShardMsg shard;
  shard.shard_index = 1;
  shard.shard_count = 4;
  shard.vectors.assign(px.begin(), px.begin() + 4 * kTile.bands);
  linalg::MeanAccumulator mean(kTile.bands);
  for (int i = 0; i < 4; ++i) {
    mean.add({shard.vectors.data() + i * kTile.bands,
              static_cast<std::size_t>(kTile.bands)});
  }
  shard.mean = mean.mean();
  return shard;
}

std::vector<std::uint8_t> cov_shard_body() {
  return cov_shard().encode(0).payload;
}

/// The worker's sum for that shard.
std::vector<std::uint8_t> cov_sum_body() {
  return core::cov_shard_sum(cov_shard(), kTile.bands).encode(0).payload;
}

core::TransformMsg transform_msg() {
  Rng rng(13);
  core::TransformMsg tm;
  tm.components = 3;
  tm.bands = kTile.bands;
  tm.matrix.resize(static_cast<std::size_t>(3 * kTile.bands));
  for (double& v : tm.matrix) v = rng.uniform(-1.0, 1.0);
  tm.mean.assign(static_cast<std::size_t>(kTile.bands), 0.5);
  tm.scale_mean = {0.0, 0.0, 0.0};
  tm.scale_gain = {40.0, 60.0, 80.0};
  return tm;
}

std::vector<std::uint8_t> transform_body() {
  return transform_msg().encode(0).payload;
}

/// The worker's colour tile under that transform.
std::vector<std::uint8_t> color_tile_body() {
  const std::vector<float> px = tile_pixels();
  return core::color_shard(kTile, px.data(), transform_msg())
      .encode(0)
      .payload;
}

/// The header of a job whose tiles are shaped like kTile.
scp::JobStartBody job_start() {
  return {7, kTile.width, 16, kTile.bands, 0.05, 3};
}

std::vector<std::uint8_t> job_start_body() { return job_start().encode(); }

/// Every message that carries a body, with its encoder: the job header
/// (a kJobStart control frame) and the fusion messages (kApp frames).
struct Kind {
  scp::FrameKind frame;
  std::uint32_t type;
  std::vector<std::uint8_t> (*body)();
};
constexpr std::array<Kind, 7> kKinds = {{
    {scp::FrameKind::kJobStart, 0, &job_start_body},
    {scp::FrameKind::kApp, core::kTileAssign, &tile_assign_body},
    {scp::FrameKind::kApp, core::kScreenResult, &screen_result_body},
    {scp::FrameKind::kApp, core::kCovShard, &cov_shard_body},
    {scp::FrameKind::kApp, core::kCovSum, &cov_sum_body},
    {scp::FrameKind::kApp, core::kTransform, &transform_body},
    {scp::FrameKind::kApp, core::kColorTile, &color_tile_body},
}};
constexpr std::size_t kKindCount = kKinds.size();

std::vector<std::uint8_t> seal(const Kind& kind,
                               std::vector<std::uint8_t> body) {
  scp::WireEnvelope env = app_envelope(kind.type);
  env.kind = kind.frame;
  env.payload = std::move(body);
  return env.encode();
}

/// One flip, truncate or splice of `bytes`; `other` donates splice tails.
std::vector<std::uint8_t> mutate(Rng& rng, std::vector<std::uint8_t> bytes,
                                 const std::vector<std::uint8_t>& other) {
  switch (rng.uniform_u64(3)) {
    case 0: {  // flip 1-4 random bits
      const std::uint64_t flips = 1 + rng.uniform_u64(4);
      for (std::uint64_t k = 0; k < flips && !bytes.empty(); ++k) {
        bytes[rng.uniform_u64(bytes.size())] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_u64(8));
      }
      break;
    }
    case 1:  // truncate
      bytes.resize(rng.uniform_u64(bytes.size() + 1));
      break;
    default: {  // splice: our prefix, then the other frame's suffix
      bytes.resize(rng.uniform_u64(bytes.size() + 1));
      const auto from = static_cast<std::ptrdiff_t>(
          rng.uniform_u64(other.size() + 1));
      bytes.insert(bytes.end(), other.begin() + from, other.end());
      break;
    }
  }
  return bytes;
}

struct ChainStats {
  int envelopes = 0;  ///< payloads that decoded as an envelope
  /// Bodies that decoded as each kKinds message.
  std::array<int, kKindCount> decoded{};
  int started = 0;   ///< decoded job headers that opened a unique set
  int screened = 0;  ///< decoded tiles run through screen_shard
  int summed = 0;    ///< decoded shards run through cov_shard_sum
  int colored = 0;   ///< decoded transforms run through color_shard
};

/// Runs every message decoder over `body`, whatever its declared type, then
/// runs each decoded header, tile, shard and transform that the worker
/// would accept (for a job of kTile's band count; remote_worker.cc drops
/// the rest) through what the worker does with it: a header opens a unique
/// set at its threshold, a tile is screened where it lies in the frame (the
/// worker's in-place view), transforms colour kTile.
void decode_all(std::span<const std::uint8_t> body, ChainStats& stats) {
  const auto job = scp::JobStartBody::try_decode(body);
  const auto assign = core::TileAssignMsg::try_view(body);
  const auto shard = core::CovShardMsg::try_decode(body);
  const auto transform = core::TransformMsg::try_decode(body);
  const bool ok[kKindCount] = {
      job.has_value(),
      assign.has_value(),
      core::ScreenResultMsg::try_decode(body).has_value(),
      shard.has_value(),
      core::CovSumMsg::try_decode(body).has_value(),
      transform.has_value(),
      core::ColorTileMsg::try_decode(body).has_value(),
  };
  for (std::size_t k = 0; k < kKindCount; ++k) stats.decoded[k] += ok[k];
  // The sim plane's copying tile decode accepts exactly what the view does.
  EXPECT_EQ(core::TileAssignMsg::try_decode(body).has_value(),
            assign.has_value());

  if (job && core::UniqueSet::valid_threshold(job->screening_threshold)) {
    (void)core::UniqueSet(job->bands, job->screening_threshold);
    ++stats.started;
  }
  if (assign && assign->fills(kTile.bands)) {
    (void)core::screen_shard(assign->tile, assign->pixels.data(), 0.05);
    ++stats.screened;
  }
  if (shard && shard->mean.size() == static_cast<std::size_t>(kTile.bands)) {
    (void)core::cov_shard_sum(*shard, kTile.bands);
    ++stats.summed;
  }
  if (transform && transform->bands == kTile.bands) {
    static const std::vector<float> px = tile_pixels();
    (void)core::color_shard(kTile, px.data(), *transform);
    ++stats.colored;
  }
}

/// Feeds `stream` through a fresh assembler in seeded fragments and decodes
/// every payload it yields; returns the envelopes that decoded.
std::vector<std::vector<std::uint8_t>> run_chain(
    Rng& rng, const std::vector<std::uint8_t>& stream, ChainStats& stats) {
  std::vector<std::vector<std::uint8_t>> accepted;
  net::FrameAssembler assembler;
  const auto sink = [&](FrameBytes payload) {
    const std::vector<std::uint8_t> copy(payload.begin(), payload.end());
    auto env = scp::WireEnvelope::try_decode(std::move(payload));
    if (!env) return;
    ++stats.envelopes;
    accepted.push_back(copy);
    decode_all(env->body(), stats);
  };
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t n = std::min<std::size_t>(
        stream.size() - pos, 1 + rng.uniform_u64(512));
    if (!assembler.feed(stream.data() + pos, n, sink)) break;
    pos += n;
  }
  return accepted;
}

TEST(FuzzTest, FrameMutantsNeverAbortAndOnlyIntactEnvelopesDecode) {
  std::vector<std::vector<std::uint8_t>> envelopes;
  std::vector<std::vector<std::uint8_t>> frames;
  for (const Kind& kind : kKinds) {
    envelopes.push_back(seal(kind, kind.body()));
    frames.push_back(net::encode_frame(envelopes.back()));
  }
  Rng rng(20261017);
  ChainStats stats;
  for (int i = 0; i < kBudget; ++i) {
    for (std::size_t f = 0; f < kKindCount; ++f) {
      const auto mutant =
          mutate(rng, frames[f], frames[(f + 1) % kKindCount]);
      for (const auto& env : run_chain(rng, mutant, stats)) {
        // Damage anywhere in an envelope fails its checksum; what decodes
        // is a frame that survived the mutation whole.
        EXPECT_NE(std::find(envelopes.begin(), envelopes.end(), env),
                  envelopes.end());
      }
    }
  }
  // The budget reached every stage of the chain, and every decoder.
  EXPECT_GT(stats.envelopes, 0);
  for (std::size_t k = 0; k < kKindCount; ++k) {
    EXPECT_GT(stats.decoded[k], 0) << "message type " << kKinds[k].type;
  }
}

TEST(FuzzTest, BodyMutantsUnderValidChecksumsNeverAbort) {
  // A peer that checksums garbage correctly: mutate the message body, then
  // seal it, so the mutants get past the envelope into the body decoders.
  std::vector<std::vector<std::uint8_t>> bodies;
  for (const Kind& kind : kKinds) bodies.push_back(kind.body());
  Rng rng(7);
  ChainStats stats;
  for (int i = 0; i < kBudget; ++i) {
    for (std::size_t b = 0; b < kKindCount; ++b) {
      const auto body = mutate(rng, bodies[b], bodies[(b + 1) % kKindCount]);
      const auto frame = net::encode_frame(seal(kKinds[b], body));
      EXPECT_EQ(run_chain(rng, frame, stats).size(), 1u);
    }
  }
  EXPECT_EQ(stats.envelopes, static_cast<int>(kKindCount) * kBudget);
  // Some mutants stay well formed (a flipped pixel is still a tile); most
  // do not, and those must be refused, not aborted on.
  int decoded = 0;
  for (std::size_t k = 0; k < kKindCount; ++k) {
    EXPECT_GT(stats.decoded[k], 0) << "message type " << kKinds[k].type;
    decoded += stats.decoded[k];
  }
  EXPECT_LT(decoded, static_cast<int>(kKindCount) * kBudget);
  // Mutants the worker accepts reached its shard ops.
  EXPECT_GT(stats.started, 0);
  EXPECT_GT(stats.screened, 0);
  EXPECT_GT(stats.summed, 0);
  EXPECT_GT(stats.colored, 0);
}

TEST(FuzzTest, ShardMessagesOfTheWrongShapeAreRefused) {
  // Each shard message below decoded before, and then aborted
  // cov_shard_sum or sent color_shard past the end of its matrix, scales or
  // mean.
  core::CovShardMsg shard = cov_shard();
  shard.shard_count = 5;  // four vectors on the wire
  EXPECT_FALSE(core::CovShardMsg::try_decode(shard.encode(0)).has_value());
  shard.shard_count = 4;
  shard.mean.pop_back();  // bands no longer divide the vectors
  EXPECT_FALSE(core::CovShardMsg::try_decode(shard.encode(0)).has_value());
  shard = cov_shard();
  shard.shard_count = std::uint64_t{1} << 62;  // wraps when multiplied
  EXPECT_FALSE(core::CovShardMsg::try_decode(shard.encode(0)).has_value());
  EXPECT_TRUE(core::CovShardMsg::try_decode(cov_shard().encode(0)));

  const auto refused = [](void (*spoil)(core::TransformMsg&)) {
    core::TransformMsg tm = transform_msg();
    spoil(tm);
    return !core::TransformMsg::try_decode(tm.encode(0)).has_value();
  };
  EXPECT_TRUE(refused([](core::TransformMsg& tm) { tm.matrix.pop_back(); }));
  EXPECT_TRUE(refused([](core::TransformMsg& tm) { tm.bands += 1; }));
  EXPECT_TRUE(refused([](core::TransformMsg& tm) {
    tm.components = 2;
    tm.matrix.resize(static_cast<std::size_t>(2 * tm.bands));
  }));
  EXPECT_TRUE(
      refused([](core::TransformMsg& tm) { tm.scale_mean.pop_back(); }));
  EXPECT_TRUE(refused([](core::TransformMsg& tm) { tm.scale_gain.clear(); }));
  EXPECT_TRUE(refused([](core::TransformMsg& tm) { tm.mean.pop_back(); }));
  EXPECT_TRUE(core::TransformMsg::try_decode(transform_msg().encode(0)));

  // A tile the worker would screen must carry exactly its pixels.
  const std::vector<float> px = tile_pixels();
  core::TileView assign{kTile, px};
  EXPECT_TRUE(assign.fills(kTile.bands));
  EXPECT_FALSE(assign.fills(kTile.bands + 1));  // another job's band count
  assign.tile.rows += 1;  // one row short
  EXPECT_FALSE(assign.fills(kTile.bands));
  // rows x width x bands = 2^64 wraps to 0 when multiplied.
  assign = {{0, 0, 1 << 30, 1 << 30, kTile.bands}, {}};
  EXPECT_FALSE(assign.fills(kTile.bands));
  assign.tile.rows = -kTile.rows;  // negative geometry
  assign.tile.width = kTile.width;
  EXPECT_FALSE(assign.fills(kTile.bands));

  // A job header the worker could not shape its work by.
  const auto header_refused = [](void (*spoil)(scp::JobStartBody&)) {
    scp::JobStartBody job = job_start();
    spoil(job);
    return !scp::JobStartBody::try_decode(job.encode()).has_value();
  };
  EXPECT_TRUE(header_refused([](scp::JobStartBody& j) { j.bands = 0; }));
  EXPECT_TRUE(header_refused([](scp::JobStartBody& j) { j.bands = -16; }));
  EXPECT_TRUE(header_refused([](scp::JobStartBody& j) { j.width = 0; }));
  EXPECT_TRUE(header_refused([](scp::JobStartBody& j) { j.height = -1; }));
  EXPECT_TRUE(header_refused(
      [](scp::JobStartBody& j) { j.output_components = 2; }));
  EXPECT_TRUE(header_refused(
      [](scp::JobStartBody& j) { j.output_components = j.bands + 1; }));
  EXPECT_TRUE(scp::JobStartBody::try_decode(job_start_body()));
  // Thresholds the unique set would abort on decode; the worker drops
  // them (WorkerDropsJobHeadersItCouldNotServe runs the worker).
  for (const double t : {0.0, -0.05, 1.5707, 3.0,
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_FALSE(core::UniqueSet::valid_threshold(t)) << t;
  }
  EXPECT_TRUE(core::UniqueSet::valid_threshold(job_start().screening_threshold));
}

TEST(FuzzTest, WorkerDropsJobHeadersItCouldNotServe) {
  // Two hostile jobs, each followed by the work it was built to break: a
  // zero threshold and one valid tile (the unique set aborts the worker),
  // and zero bands with an empty covariance shard that claims 2^62
  // vectors (cov_shard_sum loops for ~2^57 blocks). The worker must drop
  // both headers, and with them the work, then serve a sound job.
  core::CovShardMsg empty_shard;
  empty_shard.shard_count = std::uint64_t{1} << 62;
  ASSERT_TRUE(core::CovShardMsg::try_decode(empty_shard.encode(0)));

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  cluster::RemoteWorkerStats stats;
  std::thread worker([&stats, fd = sv[1]] {
    net::SocketClient client;
    client.adopt(fd);
    cluster::RemoteWorkerOptions options;
    options.telemetry = false;
    stats = cluster::serve_remote_worker(client, options);
    client.close();
  });
  net::SocketClient service;
  service.adopt(sv[0]);
  const auto send = [&service](scp::FrameKind kind, std::uint64_t seq,
                               std::uint32_t type,
                               std::vector<std::uint8_t> body) {
    scp::WireEnvelope env = app_envelope(type);
    env.kind = kind;
    env.seq = seq;
    env.payload = std::move(body);
    return service.send_frame(env.encode());
  };

  scp::JobStartBody zero_threshold = job_start();
  zero_threshold.job_id = 1;
  zero_threshold.screening_threshold = 0.0;
  EXPECT_TRUE(send(scp::FrameKind::kJobStart, 0, 0, zero_threshold.encode()));
  EXPECT_TRUE(send(scp::FrameKind::kApp, 1, core::kTileAssign,
                   tile_assign_body()));
  scp::JobStartBody no_bands = job_start();
  no_bands.job_id = 2;
  no_bands.bands = 0;
  EXPECT_TRUE(send(scp::FrameKind::kJobStart, 0, 0, no_bands.encode()));
  EXPECT_TRUE(send(scp::FrameKind::kApp, 2, core::kCovShard,
                   empty_shard.encode(0).payload));
  const scp::JobStartBody sound = job_start();
  EXPECT_TRUE(send(scp::FrameKind::kJobStart, 0, 0, sound.encode()));
  EXPECT_TRUE(send(scp::FrameKind::kApp,
                   static_cast<std::uint64_t>(sound.job_id),
                   core::kTileAssign, tile_assign_body()));
  EXPECT_TRUE(send(scp::FrameKind::kGoodbye, 0, 0, {}));
  worker.join();
  service.close();

  EXPECT_TRUE(stats.clean_exit);
  EXPECT_EQ(stats.jobs, 1u);
  EXPECT_EQ(stats.tiles_screened, 1u);
  EXPECT_EQ(stats.shards_summed, 0u);
}

TEST(FuzzTest, ExtremeMagnitudeMembersMergeExactly) {
  // Finite members whose float products overflow (1e30) or underflow
  // (1e-30): the screening pre-filter must step aside for them, so the
  // merge neither aborts nor misjudges a pair. Per tile, a copy of a
  // member is a hit at angle 0 and a fresh direction a miss.
  constexpr int kBands = 16;
  const auto direction = [](int k, double scale) {
    std::vector<float> v(kBands);
    for (int b = 0; b < kBands; ++b) {
      v[b] = static_cast<float>(scale * (1.0 + 3.0 * ((b + k) % 4 == 0)));
    }
    return v;
  };
  for (int j = 0; j < 4; ++j) {
    for (int k = j + 1; k < 4; ++k) {
      ASSERT_GT(core::spectral_angle(direction(j, 1.0), direction(k, 1.0)),
                0.5);
    }
  }
  const auto concat = [](std::initializer_list<std::vector<float>> parts) {
    std::vector<float> out;
    for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
    return out;
  };
  const hsi::ImageCube cube(kBands, 2, kBands);
  core::JobOutcome outcome;
  core::FusionCoordinator coord({kBands, 2, kBands}, &cube, 2, 0.05, 3,
                                outcome);
  ASSERT_EQ(coord.tile_count(), 2);
  // Tile 0 keeps A (1e30) and D (1e-30); tile 1 offers a copy of A, a new
  // direction C (1e30), a copy of D and a new direction F (1e-30).
  core::ScreenResultMsg first;
  first.tile = coord.tile(0);
  first.vectors = concat({direction(0, 1e30), direction(1, 1e-30)});
  core::ScreenResultMsg second;
  second.tile = coord.tile(1);
  second.vectors = concat({direction(0, 3e30), direction(2, 1e30),
                           direction(1, 5e-30), direction(3, 1e-30)});
  EXPECT_EQ(coord.accept_screen(first),
            core::FusionCoordinator::Intake::kAccepted);
  EXPECT_EQ(coord.accept_screen(second),
            core::FusionCoordinator::Intake::kAccepted);
  ASSERT_TRUE(coord.screening_done());
  const auto shards = coord.covariance_shards(1);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].shard_count, 4u);  // A, D, C, F
  // D vs A; copy of A vs A; C vs A, D; copy of D vs A, D; F vs A, D, C.
  EXPECT_EQ(outcome.merge_comparisons, 9u);
  EXPECT_EQ(shards[0].vectors,
            concat({direction(0, 1e30), direction(1, 1e-30),
                    direction(2, 1e30), direction(3, 1e-30)}));
}

TEST(FuzzTest, CubeHeaderMutantsNeverAbortOrWrapTheDataSize) {
  // The .hdr parser is a trust boundary too: a service accepts cube paths
  // from tenants, and a header whose data size wraps 64 bits would let an
  // empty data file through validation. Mutants of clean headers (LF, CRLF,
  // lone CR, huge dimensions) go through a temp file into read_header.
  const std::vector<std::string> texts = {
      "ENVI\nsamples = 5\nlines = 4\nbands = 3\nheader offset = 0\n"
      "data type = 4\ninterleave = bip\nbyte order = 0\n"
      "wavelength = { 400, 1000,\n 2500 }\n",
      "\xEF\xBB\xBF" "ENVI\r\nsamples\t=  640\r\nlines =640\r\n"
      "bands= 105\r\ndata type = 4\r\ninterleave =\tBIL\r\n",
      "ENVI\rsamples = 7\rlines = 2\rbands = 4\rdata type = 4\r"
      "interleave = bsq\r",
      "ENVI\nsamples = 1073741824\nlines = 1073741824\nbands = 16\n"
      "data type = 4\n",
      "ENVI\nsamples = 2147483647\nlines = 2147483647\nbands = 2\n",
  };
  std::vector<std::vector<std::uint8_t>> seeds;
  for (const std::string& t : texts) seeds.emplace_back(t.begin(), t.end());
  const std::string path =
      (std::filesystem::temp_directory_path() / "rif_fuzz_cube.hdr").string();
  Rng rng(1073741824);
  int accepted = 0;
  int refused = 0;
  for (int i = 0; i < kBudget; ++i) {
    for (std::size_t h = 0; h < seeds.size(); ++h) {
      const auto mutant =
          mutate(rng, seeds[h], seeds[(h + 1 + i) % seeds.size()]);
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(mutant.data()),
                  static_cast<std::streamsize>(mutant.size()));
      }
      const auto header = hsi::read_header(path);
      if (!header) {
        ++refused;
        continue;
      }
      ++accepted;
      ASSERT_GT(header->samples, 0);
      ASSERT_GT(header->lines, 0);
      ASSERT_GT(header->bands, 0);
      const unsigned __int128 exact = static_cast<unsigned __int128>(
                                          header->samples) *
                                      static_cast<unsigned __int128>(
                                          header->lines) *
                                      static_cast<unsigned __int128>(
                                          header->bands) *
                                      sizeof(float);
      ASSERT_TRUE(exact == hsi::expected_data_bytes(*header))
          << header->samples << "x" << header->lines << "x" << header->bands;
      EXPECT_TRUE(header->wavelengths.empty() ||
                  header->wavelengths.size() ==
                      static_cast<std::size_t>(header->bands));
    }
  }
  std::filesystem::remove(path);
  // The budget reached both outcomes.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
}

TEST(FuzzTest, TelemetryBodyMutantsNeverAbortAndReencodeExactly) {
  // A worker's kTelemetry batch crosses the socket trust boundary. Mutants
  // of clean batches go through TelemetryBody::try_decode; one it accepts
  // holds exactly what its bytes say, so encoding it again gives them back.
  const auto batch = [](std::int64_t job, int spans, int logs) {
    scp::TelemetryBody b;
    b.job_id = job;
    b.flush_index = static_cast<std::uint64_t>(spans + logs);
    const char phases[] = {'X', 'i', 'C', 'B', 'E'};
    for (int i = 0; i < spans; ++i) {
      scp::TelemetrySpan sp;
      sp.name = i % 2 == 0 ? scp::kJobSpanName : "screen_shard";
      sp.ts_ns = 1000u * static_cast<std::uint64_t>(i);
      sp.dur_ns = sp.name == scp::kJobSpanName ? 500u : 0u;
      sp.job = job;
      sp.value = 0.25 * i;
      sp.phase = phases[i % 5];
      b.spans.push_back(sp);
    }
    b.counters = {{"worker.tiles", 7}, {"worker.shards", 3}};
    b.gauges = {{"worker.peak_bytes", 1, 4096.0}, {"worker.load", 0, 0.5}};
    scp::TelemetryHistogram h;
    h.name = "worker.tile_seconds";
    h.count = 4;
    h.sum = 0.01;
    h.min = 0.001;
    h.max = 0.004;
    h.buckets.assign(scp::kTelemetryHistogramBuckets, 0);
    h.buckets[3] = 4;
    b.histograms.push_back(h);
    for (int i = 0; i < logs; ++i) {
      scp::TelemetryLog l;
      l.level = static_cast<std::uint8_t>(i % 5);
      l.component = "worker";
      l.message = i % 2 == 0 ? "" : "tile requeued";
      l.job = job;
      l.ts_ns = 77u * static_cast<std::uint64_t>(i);
      b.logs.push_back(l);
    }
    return b.encode();
  };
  const std::vector<std::vector<std::uint8_t>> seeds = {
      batch(-1, 0, 0), batch(3, 5, 2), batch(12, 2, 5)};
  Rng rng(0x7e1e);
  int accepted = 0;
  int refused = 0;
  for (int i = 0; i < kBudget; ++i) {
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      const auto mutant =
          mutate(rng, seeds[k], seeds[(k + 1 + i) % seeds.size()]);
      const auto body = scp::TelemetryBody::try_decode(mutant);
      if (!body) {
        ++refused;
        continue;
      }
      ++accepted;
      ASSERT_EQ(body->encode(), mutant);
    }
  }
  // The budget reached both outcomes.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
}

TEST(FuzzTest, OpsRequestMutantsNeverAbortAndParseToACommand) {
  // The ops plane's request parser is the other socket trust boundary.
  // Mutants of the five commands, counted and not, go through
  // parse_ops_request: one it accepts is one of the five, and a `logs`
  // request asks for at least one record.
  const obs::OpsServerConfig config;
  std::vector<std::vector<std::uint8_t>> seeds;
  for (const std::string t :
       {"status", "metrics\n", "subscribe-metrics", "flamegraph", "logs",
        "logs 2", "logs 512\r\n", "logs 18446744073709551615"}) {
    seeds.emplace_back(t.begin(), t.end());
  }
  using Command = obs::OpsRequest::Command;
  Rng rng(0x0b5);
  int accepted = 0;
  int refused = 0;
  for (int i = 0; i < kBudget; ++i) {
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      const auto mutant =
          mutate(rng, seeds[k], seeds[(k + 1 + i) % seeds.size()]);
      const auto request = obs::parse_ops_request(mutant, config);
      if (!request) {
        ++refused;
        continue;
      }
      ++accepted;
      switch (request->command) {
        case Command::kStatus:
        case Command::kMetrics:
        case Command::kSubscribeMetrics:
        case Command::kFlamegraph:
          break;
        case Command::kLogs:
          ASSERT_GE(request->count, 1u);
          break;
        default:
          FAIL() << "not a command: " << static_cast<int>(request->command);
      }
    }
  }
  // The budget reached both outcomes.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
}

TEST(FuzzTest, CovarianceAccumulatorMutantsNeverAbortAndReencodeExactly) {
  // A worker's covariance shard sum crosses the socket trust boundary as an
  // encoded accumulator. One try_decode accepts has the dims() and count()
  // its byte length and header say, and re-encodes to the same bytes.
  const auto accumulator = [](int dims, int pixels) {
    std::vector<double> mean(static_cast<std::size_t>(dims));
    for (int d = 0; d < dims; ++d) mean[static_cast<std::size_t>(d)] = 0.1 * d;
    linalg::CovarianceAccumulator acc(dims, mean);
    std::vector<float> pixel(static_cast<std::size_t>(dims));
    for (int p = 0; p < pixels; ++p) {
      for (int d = 0; d < dims; ++d) {
        pixel[static_cast<std::size_t>(d)] =
            static_cast<float>((p * 7 + d * 3) % 11) * 0.125f;
      }
      acc.add(pixel);
    }
    return acc.encode();
  };
  const std::vector<std::vector<std::uint8_t>> seeds = {
      accumulator(1, 1), accumulator(3, 4), accumulator(8, 9)};
  const auto encoded_bytes = [](std::size_t dims) {
    return sizeof(std::int32_t) + sizeof(std::uint64_t) +
           sizeof(std::uint64_t) + dims * sizeof(double) +
           sizeof(std::uint64_t) + dims * (dims + 1) / 2 * sizeof(double);
  };
  Rng rng(0xc0fa);
  int accepted = 0;
  int refused = 0;
  for (int i = 0; i < kBudget; ++i) {
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      const auto mutant =
          mutate(rng, seeds[k], seeds[(k + 1 + i) % seeds.size()]);
      const auto acc = linalg::CovarianceAccumulator::try_decode(mutant);
      if (!acc) {
        ++refused;
        continue;
      }
      ++accepted;
      ASSERT_GT(acc->dims(), 0);
      ASSERT_EQ(mutant.size(),
                encoded_bytes(static_cast<std::size_t>(acc->dims())));
      std::uint64_t count = 0;
      std::memcpy(&count, mutant.data() + sizeof(std::int32_t), sizeof(count));
      ASSERT_EQ(acc->count(), count);
      ASSERT_EQ(acc->encode(), mutant);
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
}

TEST(FuzzTest, CovarianceAccumulatorWithTooShortATriangleIsRefusedUnsized) {
  // A mean of 2^17 dims in 1 MiB of payload declares a 68 GB triangle.
  // The payload's own triangle is empty, so try_decode must refuse it
  // before it sizes anything from dims.
  constexpr std::int32_t kDims = 1 << 17;
  std::vector<std::uint8_t> bytes(sizeof(kDims) + sizeof(std::uint64_t));
  std::memcpy(bytes.data(), &kDims, sizeof(kDims));
  const auto put_u64 = [&bytes](std::uint64_t v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof(v));
  };
  put_u64(kDims);
  bytes.resize(bytes.size() + kDims * sizeof(double));
  put_u64(0);
  EXPECT_FALSE(linalg::CovarianceAccumulator::try_decode(bytes).has_value());
}

}  // namespace
}  // namespace rif
