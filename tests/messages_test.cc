#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "core/distributed/messages.h"
#include "linalg/stats.h"
#include "support/serialize.h"

namespace rif::core {
namespace {

// --- Wire codec round-trips ----------------------------------------------

TEST(MessagesTest, TileAssignRoundTrip) {
  TileAssignMsg msg;
  msg.tile = {3, 40, 10, 320, 105};
  msg.data = {1.0f, 2.0f, 3.0f};
  const scp::Message wire = msg.encode(12345);
  EXPECT_EQ(wire.type, kTileAssign);
  EXPECT_EQ(wire.declared_bytes, 12345u);
  const TileAssignMsg back = TileAssignMsg::decode(wire);
  EXPECT_EQ(back.tile.index, 3);
  EXPECT_EQ(back.tile.y0, 40);
  EXPECT_EQ(back.tile.rows, 10);
  EXPECT_EQ(back.data, msg.data);
}

TEST(MessagesTest, ScreenResultRoundTrip) {
  ScreenResultMsg msg;
  msg.tile = {1, 0, 5, 64, 16};
  msg.unique_count = 321;
  msg.comparisons = 99999;
  msg.vectors = {0.5f, 0.25f};
  const ScreenResultMsg back = ScreenResultMsg::decode(msg.encode(0));
  EXPECT_EQ(back.unique_count, 321u);
  EXPECT_EQ(back.comparisons, 99999u);
  EXPECT_EQ(back.vectors, msg.vectors);
}

TEST(MessagesTest, CovShardRoundTrip) {
  CovShardMsg msg;
  msg.shard_index = 5;
  msg.shard_count = 3;  // three 2-band vectors
  msg.vectors = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
  msg.mean = {0.25, 0.75};
  const CovShardMsg back = CovShardMsg::decode(msg.encode(64));
  EXPECT_EQ(back.shard_index, 5u);
  EXPECT_EQ(back.shard_count, 3u);
  EXPECT_EQ(back.vectors, msg.vectors);
  EXPECT_EQ(back.mean, msg.mean);
}

TEST(MessagesTest, CovSumRoundTrip) {
  CovSumMsg msg;
  msg.shard_index = 9;
  msg.accumulator = {1, 2, 3, 255};
  const CovSumMsg back = CovSumMsg::decode(msg.encode(0));
  EXPECT_EQ(back.shard_index, 9u);
  EXPECT_EQ(back.accumulator, msg.accumulator);
}

TEST(MessagesTest, TransformRoundTrip) {
  TransformMsg msg;
  msg.components = 3;
  msg.bands = 4;
  msg.matrix = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  msg.mean = {0.1, 0.2, 0.3, 0.4};
  msg.scale_mean = {0, 0, 0};
  msg.scale_gain = {1, 2, 3};
  const TransformMsg back = TransformMsg::decode(msg.encode(0));
  EXPECT_EQ(back.components, 3);
  EXPECT_EQ(back.bands, 4);
  EXPECT_EQ(back.matrix, msg.matrix);
  EXPECT_EQ(back.scale_gain, msg.scale_gain);
}

TEST(MessagesTest, ColorTileRoundTrip) {
  ColorTileMsg msg;
  msg.tile = {7, 8, 2, 4, 16};
  msg.rgb = {255, 0, 128, 1, 2, 3};
  const ColorTileMsg back = ColorTileMsg::decode(msg.encode(0));
  EXPECT_EQ(back.tile.index, 7);
  EXPECT_EQ(back.rgb, msg.rgb);
}

TEST(MessagesTest, WireTileConversion) {
  const hsi::Tile tile{5, 100, 20, 320, 105};
  const WireTile wire = WireTile::from(tile);
  const hsi::Tile back = wire.to_tile();
  EXPECT_EQ(back.index, 5);
  EXPECT_EQ(back.y0, 100);
  EXPECT_EQ(back.rows, 20);
  EXPECT_EQ(back.pixels(), tile.pixels());
  EXPECT_EQ(wire.pixels(), tile.pixels());
}

// --- Malformed wire payloads ---------------------------------------------
//
// Accumulator decode() runs on bytes received from other nodes; a hostile
// or corrupt payload must die on a clean bounds check, never read out of
// bounds or size containers from garbage.

TEST(MalformedPayloadTest, TruncatedMeanAccumulatorDies) {
  auto bytes = [] {
    linalg::MeanAccumulator acc(3);
    acc.add(std::vector<float>{1.0f, 2.0f, 3.0f});
    return acc.encode();
  }();
  bytes.resize(bytes.size() - 5);  // cut into the sums vector
  EXPECT_DEATH((void)linalg::MeanAccumulator::decode(bytes), "truncated");
}

TEST(MalformedPayloadTest, OverstatedVectorLengthDies) {
  // Claimed element count far beyond the buffer: the length sanity check
  // must fire even when count * sizeof(T) wraps 64-bit arithmetic.
  Writer w;
  w.put<std::uint64_t>(7);  // count
  w.put<std::uint64_t>(0xFFFFFFFFFFFFFFF0ull);  // sums length (wraps * 8)
  auto bytes = std::move(w).take();
  EXPECT_DEATH((void)linalg::MeanAccumulator::decode(bytes), "truncated");
}

TEST(MalformedPayloadTest, ZeroDimsMeanAccumulatorDies) {
  Writer w;
  w.put<std::uint64_t>(1);               // count
  w.put_vector(std::vector<double>{});   // zero dims
  auto bytes = std::move(w).take();
  EXPECT_DEATH((void)linalg::MeanAccumulator::decode(bytes), "zero dims");
}

TEST(MalformedPayloadTest, NegativeCovarianceDimsDies) {
  Writer w;
  w.put<std::int32_t>(-3);
  w.put<std::uint64_t>(1);
  w.put_vector(std::vector<double>{1.0, 2.0, 3.0});
  w.put_vector(std::vector<double>{0.0, 0.0, 0.0, 0.0, 0.0, 0.0});
  auto bytes = std::move(w).take();
  EXPECT_DEATH((void)linalg::CovarianceAccumulator::decode(bytes),
               "malformed covariance accumulator");
}

TEST(MalformedPayloadTest, MismatchedCovarianceDimsDies) {
  Writer w;
  w.put<std::int32_t>(4);  // dims disagrees with the 3-long mean below
  w.put<std::uint64_t>(1);
  w.put_vector(std::vector<double>{1.0, 2.0, 3.0});
  w.put_vector(std::vector<double>(10, 0.0));
  auto bytes = std::move(w).take();
  EXPECT_DEATH((void)linalg::CovarianceAccumulator::decode(bytes),
               "malformed covariance accumulator");
}

TEST(MalformedPayloadTest, ShortCovarianceTriangleDies) {
  Writer w;
  w.put<std::int32_t>(3);
  w.put<std::uint64_t>(2);
  w.put_vector(std::vector<double>{1.0, 2.0, 3.0});
  w.put_vector(std::vector<double>{0.0, 0.0});  // triangle needs 6
  auto bytes = std::move(w).take();
  EXPECT_DEATH((void)linalg::CovarianceAccumulator::decode(bytes),
               "malformed covariance accumulator");
}

TEST(MalformedPayloadTest, TruncatedStringDies) {
  Writer w;
  w.put<std::uint64_t>(100);  // string length beyond the buffer
  auto bytes = std::move(w).take();
  Reader r(bytes);
  EXPECT_DEATH((void)r.get_string(), "truncated");
}

// Every protocol decoder must die on a clean check for BOTH failure
// directions: a payload cut short mid-field and trailing garbage past the
// last field — bytes a real socket peer could hand us. The fatal decode()
// wrappers report both as a malformed message (try_decode is the
// non-aborting path the socket plane uses); the envelope and worker-plane
// body decoders get the same treatment in transport_test.
template <typename Msg, typename DecodeFn>
void expect_decode_bounds_checked(const Msg& msg, DecodeFn decode) {
  const scp::Message wire = msg.encode(0);
  ASSERT_GT(wire.payload.size(), 3u);

  scp::Message truncated = wire;
  truncated.payload.resize(truncated.payload.size() - 3);
  EXPECT_DEATH((void)decode(truncated), "malformed");

  scp::Message oversized = wire;
  oversized.payload.push_back(0xAB);
  EXPECT_DEATH((void)decode(oversized), "malformed");
}

TEST(MalformedPayloadTest, TileAssignBoundsChecked) {
  TileAssignMsg msg;
  msg.tile = {3, 40, 10, 320, 105};
  msg.data = {1.0f, 2.0f, 3.0f};
  expect_decode_bounds_checked(
      msg, [](const scp::Message& m) { return TileAssignMsg::decode(m); });
}

TEST(MalformedPayloadTest, ScreenResultBoundsChecked) {
  ScreenResultMsg msg;
  msg.tile = {1, 0, 5, 64, 16};
  msg.unique_count = 9;
  msg.vectors = {0.5f, 0.25f};
  expect_decode_bounds_checked(
      msg, [](const scp::Message& m) { return ScreenResultMsg::decode(m); });
}

TEST(MalformedPayloadTest, CovShardBoundsChecked) {
  CovShardMsg msg;
  msg.shard_count = 2;
  msg.vectors = {1.0f, 2.0f};
  msg.mean = {0.5, 0.5};
  expect_decode_bounds_checked(
      msg, [](const scp::Message& m) { return CovShardMsg::decode(m); });
}

TEST(MalformedPayloadTest, CovSumBoundsChecked) {
  CovSumMsg msg;
  msg.accumulator = {1, 2, 3, 4, 5, 6, 7, 8};
  expect_decode_bounds_checked(
      msg, [](const scp::Message& m) { return CovSumMsg::decode(m); });
}

TEST(MalformedPayloadTest, TransformBoundsChecked) {
  TransformMsg msg;
  msg.components = 1;
  msg.bands = 2;
  msg.matrix = {1.0, 2.0};
  msg.mean = {0.1, 0.2};
  msg.scale_mean = {0.0};
  msg.scale_gain = {1.0};
  expect_decode_bounds_checked(
      msg, [](const scp::Message& m) { return TransformMsg::decode(m); });
}

TEST(MalformedPayloadTest, ColorTileBoundsChecked) {
  ColorTileMsg msg;
  msg.tile = {7, 8, 2, 4, 16};
  msg.rgb = {255, 0, 128, 1, 2, 3};
  expect_decode_bounds_checked(
      msg, [](const scp::Message& m) { return ColorTileMsg::decode(m); });
}

TEST(MessagesTest, DeclaredBytesDefaultsToPayload) {
  scp::Message m{kRequestWork, {1, 2, 3, 4}, 0};
  EXPECT_EQ(m.wire_bytes(), 64u + 4u);  // header + payload
  scp::Message big{kTileAssign, {1}, 1000000};
  EXPECT_EQ(big.wire_bytes(), 64u + 1000000u);
}

// --- Cost model properties --------------------------------------------------

class CostModelTest : public ::testing::Test {
 protected:
  CostModelParams params_;
  CostModel model_{params_, 105, 3};
};

TEST_F(CostModelTest, TileUniqueSaturates) {
  EXPECT_LT(model_.tile_unique_size(1), model_.tile_unique_size(100));
  EXPECT_LT(model_.tile_unique_size(100), model_.tile_unique_size(10000));
  EXPECT_LE(model_.tile_unique_size(1 << 26),
            params_.tile_unique_saturation * 1.0001);
  EXPECT_NEAR(model_.tile_unique_size(1 << 26),
              params_.tile_unique_saturation,
              1e-6 * params_.tile_unique_saturation);
}

TEST_F(CostModelTest, ScreenFlopsSuperlinearInPixelsUntilSaturation) {
  // Below saturation, doubling pixels more than doubles work (the set is
  // still growing); far above, it is linear.
  const double small = model_.screen_flops(50);
  const double twice = model_.screen_flops(100);
  EXPECT_GT(twice, 2.0 * small);
  const double big = model_.screen_flops(100000);
  const double bigger = model_.screen_flops(200000);
  EXPECT_NEAR(bigger / big, 2.0, 0.05);
}

TEST_F(CostModelTest, StepFlopsPositiveAndScaled) {
  EXPECT_GT(model_.merge_flops(100), 0.0);
  EXPECT_GT(model_.mean_flops(), 0.0);
  EXPECT_GT(model_.cov_flops(10), 0.0);
  EXPECT_GT(model_.eigen_flops(), 0.0);
  EXPECT_DOUBLE_EQ(model_.transform_flops(10) / 10.0,
                   model_.transform_flops(1));
  EXPECT_DOUBLE_EQ(model_.cov_flops(20), 2.0 * model_.cov_flops(10));
}

TEST_F(CostModelTest, MergeScaleReducesCharge) {
  CostModelParams scaled = params_;
  scaled.merge_cost_scale = 0.25;
  CostModel cheap(scaled, 105, 3);
  EXPECT_DOUBLE_EQ(cheap.merge_flops(100), 0.25 * model_.merge_flops(100));
}

TEST_F(CostModelTest, WireSizesMatchShapes) {
  EXPECT_EQ(model_.tile_bytes(100), 100u * 105 * 4);
  EXPECT_EQ(model_.unique_vectors_bytes(10.0), 10u * 105 * 4);
  EXPECT_EQ(model_.cov_sum_bytes(), 105u * 106 / 2 * 8 + 16);
  EXPECT_EQ(model_.color_tile_bytes(100), 100u * 3 + 32);
  EXPECT_GT(model_.transform_bytes(), 3u * 105 * 8);
}

TEST_F(CostModelTest, EigenFlopsCubicInBands) {
  CostModel small(params_, 32, 3);
  CostModel large(params_, 128, 3);
  // 4x bands -> ~64x eigen work.
  EXPECT_GT(large.eigen_flops() / small.eigen_flops(), 40.0);
  EXPECT_LT(large.eigen_flops() / small.eigen_flops(), 90.0);
}

TEST_F(CostModelTest, FlopsPerComparisonTracksBands) {
  CostModel narrow(params_, 10, 3);
  CostModel wide(params_, 210, 3);
  EXPECT_GT(wide.flops_per_comparison(), narrow.flops_per_comparison());
  EXPECT_NEAR(wide.flops_per_comparison(), 2.0 * 210 + 10, 1e-12);
}

}  // namespace
}  // namespace rif::core
