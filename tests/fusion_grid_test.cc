// Property sweep: every point of the (workers x replication x network)
// configuration grid must complete, be deterministic, and respect basic
// monotonicity (replication never makes the run faster).
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/distributed/fusion_job.h"

namespace rif::core {
namespace {

using GridParam = std::tuple<int /*workers*/, int /*replication*/,
                             NetworkKind>;

class FusionGridTest : public ::testing::TestWithParam<GridParam> {};

FusionJobConfig grid_config(const GridParam& p) {
  FusionJobConfig config;
  config.mode = ExecutionMode::kCostOnly;
  config.shape = {96, 96, 24};  // small so the grid runs fast
  config.workers = std::get<0>(p);
  config.replication = std::get<1>(p);
  config.resilient = config.replication > 1;
  config.network = std::get<2>(p);
  config.tiles_per_worker = 2;
  config.deadline = from_seconds(100000);
  return config;
}

TEST_P(FusionGridTest, CompletesAndIsDeterministic) {
  const FusionJobConfig config = grid_config(GetParam());
  const FusionReport a = run_fusion_job(config);
  ASSERT_TRUE(a.completed);
  EXPECT_GT(a.elapsed_seconds, 0.0);
  EXPECT_EQ(a.outcome.tiles_colored, a.outcome.tiles_distributed);

  const FusionReport b = run_fusion_job(config);
  EXPECT_DOUBLE_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.protocol.replica_messages, b.protocol.replica_messages);
}

TEST_P(FusionGridTest, ReplicationNeverFaster) {
  const GridParam p = GetParam();
  if (std::get<1>(p) == 1) GTEST_SKIP() << "baseline point";
  const FusionReport replicated = run_fusion_job(grid_config(p));
  GridParam baseline = p;
  std::get<1>(baseline) = 1;
  const FusionReport plain = run_fusion_job(grid_config(baseline));
  ASSERT_TRUE(replicated.completed && plain.completed);
  EXPECT_GE(replicated.elapsed_seconds, plain.elapsed_seconds * 0.999);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FusionGridTest,
    ::testing::Combine(::testing::Values(1, 3, 8),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(NetworkKind::kLan,
                                         NetworkKind::kSharedBus,
                                         NetworkKind::kSmp)),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      const char* net =
          std::get<2>(info.param) == NetworkKind::kLan        ? "Lan"
          : std::get<2>(info.param) == NetworkKind::kSharedBus ? "Bus"
                                                                : "Smp";
      std::string name = "W";
      name += std::to_string(std::get<0>(info.param));
      name += 'R';
      name += std::to_string(std::get<1>(info.param));
      name += net;
      return name;
    });

}  // namespace
}  // namespace rif::core
