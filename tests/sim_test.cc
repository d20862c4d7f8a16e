#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.h"
#include "sim/trace.h"

namespace rif::sim {
namespace {

TEST(SimulationTest, StartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(SimulationTest, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(from_seconds(3.0), [&] { order.push_back(3); });
  sim.schedule_at(from_seconds(1.0), [&] { order.push_back(1); });
  sim.schedule_at(from_seconds(2.0), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), from_seconds(3.0));
}

TEST(SimulationTest, TiesBreakInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(from_seconds(1.0), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulationTest, ScheduleAfterAdvancesClock) {
  Simulation sim;
  SimTime seen = -1;
  sim.schedule_after(from_millis(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, from_millis(5));
}

TEST(SimulationTest, EventsCanScheduleEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule_after(from_millis(1), chain);
  };
  sim.schedule_after(from_millis(1), chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), from_millis(5));
}

TEST(SimulationTest, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.schedule_after(from_millis(1), [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulationTest, CancelUnknownIsNoOp) {
  Simulation sim;
  sim.cancel(EventId{999});
  bool fired = false;
  sim.schedule_after(1, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(SimulationTest, CancelFiredIsNoOp) {
  Simulation sim;
  const EventId id = sim.schedule_after(1, [] {});
  sim.run();
  sim.cancel(id);  // must not crash or corrupt state
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(from_seconds(1.0), [&] { order.push_back(1); });
  sim.schedule_at(from_seconds(5.0), [&] { order.push_back(5); });
  const bool drained = sim.run_until(from_seconds(2.0));
  EXPECT_FALSE(drained);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), from_seconds(2.0));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 5}));
}

TEST(SimulationTest, RunUntilReportsDrained) {
  Simulation sim;
  sim.schedule_at(from_seconds(1.0), [] {});
  EXPECT_TRUE(sim.run_until(from_seconds(10.0)));
  EXPECT_EQ(sim.now(), from_seconds(10.0));
}

TEST(SimulationTest, SchedulingIntoPastAborts) {
  Simulation sim;
  sim.schedule_at(from_seconds(2.0), [] {});
  sim.run();
  EXPECT_DEATH((void)sim.schedule_at(from_seconds(1.0), [] {}), "past");
}

TEST(SimulationTest, PendingCountTracksQueue) {
  Simulation sim;
  const EventId a = sim.schedule_after(1, [] {});
  sim.schedule_after(2, [] {});
  EXPECT_EQ(sim.events_pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(TraceTest, CountsByKind) {
  TraceRecorder trace;
  trace.set_enabled(true);
  trace.record({0, TraceKind::kMessageSent, 1, 2, 100, {}});
  trace.record({1, TraceKind::kMessageSent, 2, 1, 50, {}});
  trace.record({2, TraceKind::kNodeFailed, 1, -1, 0, {}});
  EXPECT_EQ(trace.count(TraceKind::kMessageSent), 2u);
  EXPECT_EQ(trace.count(TraceKind::kNodeFailed), 1u);
  EXPECT_EQ(trace.count(TraceKind::kReplicaSpawned), 0u);
}

TEST(TraceTest, DisabledRecordsNothing) {
  TraceRecorder trace;
  trace.record({0, TraceKind::kMessageSent, 1, 2, 100, {}});
  EXPECT_TRUE(trace.records().empty());
}

TEST(TraceTest, KindNamesAreStable) {
  EXPECT_STREQ(trace_kind_name(TraceKind::kMessageSent), "message_sent");
  EXPECT_STREQ(trace_kind_name(TraceKind::kReplicaSpawned), "replica_spawned");
}

}  // namespace
}  // namespace rif::sim
