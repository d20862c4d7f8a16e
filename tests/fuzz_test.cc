// Seeded mutation fuzzing of the socket plane's receive path. Frames of the
// six fusion messages, encoded the way the coordinator and the worker encode
// them, are flipped, truncated and spliced, and every mutant runs the whole
// trust-boundary chain: FrameAssembler -> WireEnvelope::try_decode -> every
// message's try_decode, all decoding in place from the frame. A decoded
// tile, shard or transform that a worker would accept then runs through
// the worker's shard op. The invariant is that nothing aborts and nothing
// reads out of bounds (the ASan leg checks the second half). A fixed seed
// and budget keep the run deterministic and short. The last cases pin the
// shard-message shape checks and feed the coordinator's merge members of
// extreme magnitude.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "core/distributed/fusion_coordinator.h"
#include "core/distributed/messages.h"
#include "core/distributed/shard_ops.h"
#include "core/spectral_angle.h"
#include "linalg/stats.h"
#include "net/frame.h"
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

/// Every fusion message that carries a body, with its encoder.
struct Kind {
  std::uint32_t type;
  std::vector<std::uint8_t> (*body)();
};
constexpr std::array<Kind, 6> kKinds = {{
    {core::kTileAssign, &tile_assign_body},
    {core::kScreenResult, &screen_result_body},
    {core::kCovShard, &cov_shard_body},
    {core::kCovSum, &cov_sum_body},
    {core::kTransform, &transform_body},
    {core::kColorTile, &color_tile_body},
}};
constexpr std::size_t kKindCount = kKinds.size();

std::vector<std::uint8_t> seal(std::uint32_t type,
                               std::vector<std::uint8_t> body) {
  scp::WireEnvelope env = app_envelope(type);
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
  int screened = 0;  ///< decoded tiles run through screen_shard
  int summed = 0;    ///< decoded shards run through cov_shard_sum
  int colored = 0;   ///< decoded transforms run through color_shard
};

/// Runs every message decoder over `body`, whatever its declared type, then
/// runs each decoded tile, shard and transform that the worker would accept
/// for a job of kTile's band count (remote_worker.cc drops the rest)
/// through the worker's op for it; transforms colour kTile.
void decode_all(std::span<const std::uint8_t> body, ChainStats& stats) {
  const auto assign = core::TileAssignMsg::try_decode(body);
  const auto shard = core::CovShardMsg::try_decode(body);
  const auto transform = core::TransformMsg::try_decode(body);
  const bool ok[kKindCount] = {
      assign.has_value(),
      core::ScreenResultMsg::try_decode(body).has_value(),
      shard.has_value(),
      core::CovSumMsg::try_decode(body).has_value(),
      transform.has_value(),
      core::ColorTileMsg::try_decode(body).has_value(),
  };
  for (std::size_t k = 0; k < kKindCount; ++k) stats.decoded[k] += ok[k];

  if (assign && assign->fills(kTile.bands)) {
    (void)core::screen_shard(assign->tile, assign->data.data(), 0.05);
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
  const auto sink = [&](std::vector<std::uint8_t> payload) {
    const std::vector<std::uint8_t> copy = payload;
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
    envelopes.push_back(seal(kind.type, kind.body()));
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
      const auto frame = net::encode_frame(seal(kKinds[b].type, body));
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
  core::TileAssignMsg assign{kTile, tile_pixels()};
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
  core::FusionCoordinator coord({kBands, 2, kBands}, &cube, 2, 0.05, 3, {},
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

}  // namespace
}  // namespace rif
