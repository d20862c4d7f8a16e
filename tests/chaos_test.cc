// Chaos-readiness of the remote worker plane.
//
// Layer by layer: the Backoff schedule and the seeded fault scripts are
// bit-reproducible; each WireFault kind observably mutates traffic at the
// frame boundary (drop / delay / duplicate / truncate / corrupt / kill /
// partition); heartbeat supervision keeps healthy idle workers alive and
// evicts hung (non-disconnected) ones; per-item deadlines re-send the work
// of a worker that hangs WITHOUT dropping its socket, with a bounded
// budget that fails over to the host pool. The final soak is the
// acceptance scenario: a seeded schedule mixing every fault family over a
// stream of jobs, all of which must complete byte-identical to the sim
// oracle or fall back — the service never aborts and never wedges.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/failure_injector.h"
#include "cluster/remote_pool.h"
#include "core/distributed/messages.h"
#include "core/parallel/parallel_pct.h"
#include "hsi/scene.h"
#include "net/backoff.h"
#include "net/fault_injection.h"
#include "net/socket_transport.h"
#include "obs/remote_telemetry.h"
#include "obs/span_tracer.h"
#include "obs/trace_check.h"
#include "runtime/metrics.h"
#include "scp/wire.h"
#include "service/remote_exec.h"
#include "service/service.h"
#include "sim/simulation.h"
#include "support/rng.h"

namespace rif {
namespace {

using cluster::RemoteWorkerPool;
using net::WireDirection;
using net::WireFault;
using net::WireFaultEvent;

// --- Backoff -----------------------------------------------------------------

TEST(BackoffTest, SameSeedSameSchedule) {
  net::BackoffConfig cfg;
  cfg.seed = 42;
  net::Backoff a(cfg);
  net::Backoff b(cfg);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.next_delay_seconds(), b.next_delay_seconds());
  }
}

TEST(BackoffTest, GrowsGeometricallyWithinJitterBounds) {
  net::BackoffConfig cfg;  // 0.05s * 2^i capped at 2.0s, +/-20% jitter
  net::Backoff backoff(cfg);
  for (int i = 0; i < 10; ++i) {
    const double base = std::min(0.05 * std::pow(2.0, i), 2.0);
    const double d = backoff.next_delay_seconds();
    EXPECT_GE(d, base * (1.0 - cfg.jitter) - 1e-12) << "attempt " << i;
    EXPECT_LE(d, base * (1.0 + cfg.jitter) + 1e-12) << "attempt " << i;
  }
  EXPECT_EQ(backoff.attempts(), 10);
}

TEST(BackoffTest, NoJitterIsExactAndResetRestarts) {
  net::BackoffConfig cfg;
  cfg.jitter = 0.0;
  net::Backoff backoff(cfg);
  EXPECT_DOUBLE_EQ(backoff.next_delay_seconds(), 0.05);
  EXPECT_DOUBLE_EQ(backoff.next_delay_seconds(), 0.10);
  EXPECT_DOUBLE_EQ(backoff.next_delay_seconds(), 0.20);
  backoff.reset();
  EXPECT_EQ(backoff.attempts(), 0);
  EXPECT_DOUBLE_EQ(backoff.next_delay_seconds(), 0.05);
  // The cap binds eventually.
  for (int i = 0; i < 10; ++i) backoff.next_delay_seconds();
  EXPECT_DOUBLE_EQ(backoff.next_delay_seconds(), 2.0);
}

// --- Seeded fault schedules --------------------------------------------------

TEST(FaultScheduleTest, PoissonWireScriptIsDeterministic) {
  const std::vector<WireFault> kinds{WireFault::kDrop, WireFault::kDelay,
                                     WireFault::kCorrupt};
  Rng a(1234);
  Rng b(1234);
  const auto s1 = net::poisson_wire_script(a, 500, 40.0, kinds, 3);
  const auto s2 = net::poisson_wire_script(b, 500, 40.0, kinds, 3);
  ASSERT_FALSE(s1.empty());
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].at_frame, s2[i].at_frame);
    EXPECT_EQ(s1[i].session_ordinal, s2[i].session_ordinal);
    EXPECT_EQ(s1[i].direction, s2[i].direction);
    EXPECT_EQ(s1[i].fault, s2[i].fault);
    EXPECT_EQ(s1[i].arg, s2[i].arg);
  }
  for (const WireFaultEvent& e : s1) {
    // Gaps are floored at one frame, so frame 0 — the handshake — is never
    // faulted and the script stays inside the horizon.
    EXPECT_GE(e.at_frame, 1u);
    EXPECT_LT(e.at_frame, 500u);
    EXPECT_GE(e.session_ordinal, 0);
    EXPECT_LT(e.session_ordinal, 3);
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), e.fault), kinds.end());
  }
}

TEST(FaultScheduleTest, SimPoissonScheduleIsDeterministic) {
  const std::vector<cluster::NodeId> victims{1, 2, 3};
  const auto schedule = [&](std::uint64_t seed) {
    sim::Simulation sim;
    cluster::Cluster cluster(sim);
    cluster.add_nodes(4, {});
    cluster::FailureInjector injector(cluster);
    Rng rng(seed);
    return injector.schedule_poisson(rng, 0, from_seconds(100.0),
                                     from_seconds(5.0), victims);
  };
  const auto s1 = schedule(9);
  const auto s2 = schedule(9);
  const auto s3 = schedule(10);
  ASSERT_FALSE(s1.empty());
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].time, s2[i].time);
    EXPECT_EQ(s1[i].node, s2[i].node);
  }
  // A different seed is a different attack (overwhelmingly likely).
  bool differs = s1.size() != s3.size();
  for (std::size_t i = 0; !differs && i < s1.size(); ++i) {
    differs = s1[i].time != s3[i].time || s1[i].node != s3[i].node;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultScheduleTest, SimFailureScriptMapsOntoWireKills) {
  // Shared attack vocabulary: the same script drives the virtual cluster
  // (FailureInjector) and the socket plane (wire kills). Host nodes below
  // `first_node` have no session and are skipped.
  const std::vector<cluster::FailureEvent> script{
      {/*time=*/from_seconds(0.5), /*node=*/0, /*repair_after=*/-1},
      {from_seconds(2.0), 3, -1},
      {from_seconds(0.0), 1, -1},
  };
  const auto wire =
      net::wire_script_from_failures(script, /*first_node=*/1,
                                     /*frames_per_second=*/10.0);
  ASSERT_EQ(wire.size(), 2u);  // node 0 is the host: not on the wire plane
  EXPECT_EQ(wire[0].session_ordinal, 2);
  EXPECT_EQ(wire[0].at_frame, 20u);
  EXPECT_EQ(wire[1].session_ordinal, 0);
  EXPECT_EQ(wire[1].at_frame, 0u);
  for (const WireFaultEvent& e : wire) {
    EXPECT_EQ(e.fault, WireFault::kKill);
    EXPECT_EQ(e.direction, WireDirection::kInbound);
  }
}

// --- Wire fault semantics at the frame boundary ------------------------------

scp::WireEnvelope app_frame(std::uint64_t marker) {
  scp::WireEnvelope env;
  env.kind = scp::FrameKind::kApp;
  env.seq = marker;
  env.msg_type = core::kRequestWork;
  return env;
}

/// Pool with one scripted-fault session whose far end we drive by hand.
struct FaultRig {
  RemoteWorkerPool pool;
  runtime::MetricsRegistry metrics;
  net::SocketClient client;

  explicit FaultRig(net::WireFaultPlan plan) {
    pool.install_faults(std::move(plan));
    pool.bind_metrics(metrics);
    pool.start(/*first_node_id=*/100);
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    pool.adopt_fd(sv[0]);
    client.adopt(sv[1]);
    scp::WireEnvelope hello;  // inbound frame 0; outbound frame 0 = welcome
    hello.kind = scp::FrameKind::kHello;
    hello.payload = scp::HelloBody{}.encode();
    EXPECT_TRUE(client.send_frame(hello.encode()));
    EXPECT_EQ(pool.wait_for_workers(1, 10.0), 1);
  }

  ~FaultRig() {
    client.close();
    pool.stop();
  }

  void send_app(std::uint64_t marker) {
    ASSERT_TRUE(client.send_frame(app_frame(marker).encode()));
  }

  /// Next kFrame event's marker, or -1 on timeout / disconnect.
  std::int64_t next_marker(double timeout = 5.0) {
    const auto ev = pool.poll_event(timeout);
    if (!ev || ev->kind != RemoteWorkerPool::Event::Kind::kFrame) return -1;
    return static_cast<std::int64_t>(ev->env.seq);
  }

  bool saw_close(double timeout = 5.0) {
    const auto ev = pool.poll_event(timeout);
    return ev && ev->kind == RemoteWorkerPool::Event::Kind::kClosed;
  }
};

TEST(WireFaultTest, DropSwallowsExactlyTheScriptedFrame) {
  FaultRig rig({{{/*at_frame=*/1, /*ordinal=*/0, WireDirection::kInbound,
                  WireFault::kDrop, 0}}});
  rig.send_app(1);  // inbound frame 1: dropped
  rig.send_app(2);  // inbound frame 2: delivered
  EXPECT_EQ(rig.next_marker(), 2);
  EXPECT_EQ(rig.metrics.counter_value("remote.faults.drop"), 1u);
  EXPECT_EQ(rig.metrics.counter_value("remote.faults.total"), 1u);
}

TEST(WireFaultTest, DuplicateDeliversTheFrameTwice) {
  FaultRig rig({{{1, 0, WireDirection::kInbound, WireFault::kDuplicate, 0}}});
  rig.send_app(1);
  rig.send_app(2);
  EXPECT_EQ(rig.next_marker(), 1);
  EXPECT_EQ(rig.next_marker(), 1);
  EXPECT_EQ(rig.next_marker(), 2);
}

TEST(WireFaultTest, DelayHoldsUntilLaterFramesFlushIt) {
  // Frame 1 held behind 2 more lane crossings: delivery order is 2, 3, 1 —
  // later traffic (re-sends, heartbeats) is the clock that flushes a
  // delayed frame.
  FaultRig rig({{{1, 0, WireDirection::kInbound, WireFault::kDelay,
                  /*arg=*/2}}});
  rig.send_app(1);
  rig.send_app(2);
  rig.send_app(3);
  EXPECT_EQ(rig.next_marker(), 2);
  EXPECT_EQ(rig.next_marker(), 3);
  EXPECT_EQ(rig.next_marker(), 1);
}

TEST(WireFaultTest, OutboundDropLosesThePoolsFrame) {
  FaultRig rig({{{1, 0, WireDirection::kOutbound, WireFault::kDrop, 0}}});
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(rig.client.read_frame(frame));  // outbound frame 0: welcome
  EXPECT_EQ(scp::WireEnvelope::decode(frame).kind, scp::FrameKind::kWelcome);
  EXPECT_TRUE(rig.pool.send(0, app_frame(1)));  // frame 1: dropped
  EXPECT_TRUE(rig.pool.send(0, app_frame(2)));  // frame 2: delivered
  ASSERT_TRUE(rig.client.read_frame(frame));
  EXPECT_EQ(scp::WireEnvelope::decode(frame).seq, 2u);
}

TEST(WireFaultTest, TruncatedFrameIsMalformedAndClosesSession) {
  // Truncation keeps the framing valid but guts the envelope: the pool must
  // treat it as a hostile/broken peer and close the session, never abort.
  FaultRig rig({{{1, 0, WireDirection::kInbound, WireFault::kTruncate,
                  /*arg=*/3}}});
  rig.send_app(1);
  EXPECT_TRUE(rig.saw_close());
  EXPECT_EQ(rig.pool.disconnects(), 1);
  EXPECT_EQ(rig.metrics.counter_value("remote.malformed"), 1u);
  EXPECT_EQ(rig.metrics.counter_value("remote.faults.truncate"), 1u);
}

TEST(WireFaultTest, CorruptedFrameFailsTheChecksumAndClosesSession) {
  // A single flipped byte anywhere in the envelope breaks the checksum
  // trailer, so corruption surfaces as a malformed frame — never as
  // garbage floats inside a merge.
  FaultRig rig({{{1, 0, WireDirection::kInbound, WireFault::kCorrupt,
                  /*arg=*/1}}});
  rig.send_app(1);
  EXPECT_TRUE(rig.saw_close());
  EXPECT_EQ(rig.metrics.counter_value("remote.malformed"), 1u);
  EXPECT_EQ(rig.metrics.counter_value("remote.faults.corrupt"), 1u);
}

TEST(WireFaultTest, KillClosesTheSessionImmediately) {
  FaultRig rig({{{1, 0, WireDirection::kInbound, WireFault::kKill, 0}}});
  rig.send_app(1);
  EXPECT_TRUE(rig.saw_close());
  EXPECT_EQ(rig.pool.disconnects(), 1);
  EXPECT_FALSE(rig.pool.alive(0));
  EXPECT_EQ(rig.pool.evictions(), 0);  // a crash is not an eviction
}

// --- Heartbeat supervision ---------------------------------------------------

TEST(SupervisionTest, HealthyIdleWorkerSurvivesOnHeartbeats) {
  RemoteWorkerPool pool;
  pool.configure_supervision({/*heartbeat=*/0.05, /*hung=*/0.25});
  pool.start(100);
  pool.spawn_local_worker();
  ASSERT_EQ(pool.wait_for_workers(1, 10.0), 1);

  // Idle for several hung-timeouts: pings keep refreshing the worker's
  // last-activity stamp, so it is never evicted.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_TRUE(pool.alive(0));
  EXPECT_EQ(pool.evictions(), 0);
  EXPECT_GT(pool.pings_sent(), 0u);
  EXPECT_GT(pool.pongs_received(), 0u);
  pool.stop();
}

TEST(SupervisionTest, PartitionedWorkerIsEvictedAsHung) {
  // One-way partition: the worker still hears us (and keeps answering
  // pings into the void) but nothing it says arrives — a hang, not a
  // crash, since its socket never closes. Supervision must evict it
  // through the same on_closed path a crash takes.
  RemoteWorkerPool pool;
  runtime::MetricsRegistry metrics;
  pool.install_faults({{{/*at_frame=*/1, /*ordinal=*/0,
                         WireDirection::kInbound, WireFault::kPartitionIn,
                         0}}});
  pool.bind_metrics(metrics);
  pool.configure_supervision({/*heartbeat=*/0.05, /*hung=*/0.3});
  pool.start(100);
  pool.spawn_local_worker();
  ASSERT_EQ(pool.wait_for_workers(1, 10.0), 1);

  const auto ev = pool.poll_event(10.0);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, RemoteWorkerPool::Event::Kind::kClosed);
  EXPECT_EQ(ev->worker, 0);
  EXPECT_EQ(pool.evictions(), 1);
  EXPECT_EQ(pool.disconnects(), 1);  // evictions are a subset of disconnects
  EXPECT_FALSE(pool.alive(0));
  EXPECT_EQ(metrics.counter_value("remote.evictions"), 1u);
  EXPECT_GE(metrics.counter_value("remote.faults.partition_in"), 1u);
  pool.stop();
}

// --- Per-item deadlines ------------------------------------------------------

hsi::Scene chaos_scene(int size = 24, int bands = 8, std::uint64_t seed = 91) {
  hsi::SceneConfig cfg;
  cfg.width = size;
  cfg.height = size;
  cfg.bands = bands;
  cfg.seed = seed;
  return hsi::generate_scene(cfg);
}

/// A worker that completes the handshake and asks for work, then never
/// answers anything — the pathological hang the old cumulative-silence
/// clock could not isolate: its socket stays open and other workers'
/// chatter used to keep resetting the one global timer.
void hung_worker(int fd) {
  net::SocketClient client;
  client.adopt(fd);
  scp::WireEnvelope hello;
  hello.kind = scp::FrameKind::kHello;
  hello.payload = scp::HelloBody{}.encode();
  if (!client.send_frame(hello.encode())) return;
  std::vector<std::uint8_t> frame;
  while (client.read_frame(frame)) {
    const auto env = scp::WireEnvelope::try_decode(frame);
    if (!env) break;
    if (env->kind == scp::FrameKind::kGoodbye) break;
    if (env->kind == scp::FrameKind::kJobStart) {
      // The job tag lives in the body, not the control frame's seq.
      const auto job = scp::JobStartBody::try_decode(env->payload);
      if (!job) continue;
      scp::WireEnvelope req;
      req.kind = scp::FrameKind::kApp;
      req.seq = static_cast<std::uint64_t>(job->job_id);
      req.msg_type = core::kRequestWork;
      if (!client.send_frame(req.encode())) break;
    }
    // Everything else — tile assigns, cov shards, pings — is read and
    // ignored: the worker is alive on the wire and dead in spirit.
  }
  client.close();
}

TEST(DeadlineTest, HungWorkersItemsAreResentAndJobStaysBitExact) {
  const auto scene = chaos_scene(32, 16, 77);
  const int total_tiles = 6;

  RemoteWorkerPool pool;
  pool.start(100);
  pool.spawn_local_worker();
  pool.spawn_local_worker();
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  pool.adopt_fd(sv[0]);
  std::thread hung([fd = sv[1]] { hung_worker(fd); });
  ASSERT_EQ(pool.wait_for_workers(3, 10.0), 3);

  runtime::MetricsRegistry metrics;
  service::RemoteExecParams params;
  params.cube = &scene.cube;
  params.total_tiles = total_tiles;
  params.job_id = 11;
  params.shard_deadline_seconds = 0.25;
  params.resend_limit = 5;
  params.deadline_seconds = 30.0;
  params.metrics = &metrics;
  const service::RemoteExecResult real =
      service::execute_remote_job(pool, {0, 1, 2}, params);
  pool.stop();  // unblocks the hung worker's read loop
  hung.join();

  ASSERT_TRUE(real.completed);
  // The hang never dropped the socket: recovery came from per-item
  // deadlines, not the disconnect path.
  EXPECT_EQ(real.worker_disconnects, 0);
  EXPECT_GE(real.tiles_resent + real.shards_resent, 1);
  EXPECT_GE(metrics.counter_value("remote.tile_resends") +
                metrics.counter_value("remote.shard_resends"),
            1u);
  EXPECT_EQ(real.deadline_giveups, 0);

  // A re-sent item computed by a different worker lands in the same
  // index-keyed slot: the composite is still the oracle's exact bytes.
  core::ParallelPctConfig pcfg;
  pcfg.tiles = total_tiles;
  pcfg.cov_shards = 3;
  const core::PctResult ref = core::fuse_parallel(scene.cube, pcfg);
  EXPECT_EQ(real.composite.data, ref.composite.data);
  EXPECT_EQ(real.eigenvalues, ref.eigenvalues);
  EXPECT_EQ(real.unique_set_size, ref.unique_set_size);
  EXPECT_EQ(real.screen_comparisons, ref.screen_comparisons);
  EXPECT_EQ(real.merge_comparisons, ref.merge_comparisons);
}

TEST(DeadlineTest, ExhaustedResendBudgetFailsOverInsteadOfWedging) {
  const auto scene = chaos_scene(16, 8, 5);

  RemoteWorkerPool pool;
  pool.start(100);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  pool.adopt_fd(sv[0]);
  std::thread hung([fd = sv[1]] { hung_worker(fd); });
  ASSERT_EQ(pool.wait_for_workers(1, 10.0), 1);

  runtime::MetricsRegistry metrics;
  service::RemoteExecParams params;
  params.cube = &scene.cube;
  params.total_tiles = 4;
  params.job_id = 12;
  params.shard_deadline_seconds = 0.1;
  params.resend_limit = 2;
  params.deadline_seconds = 30.0;  // budget, not the wall clock, must fire
  params.metrics = &metrics;
  const auto started = std::chrono::steady_clock::now();
  const service::RemoteExecResult real =
      service::execute_remote_job(pool, {0}, params);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  pool.stop();
  hung.join();

  EXPECT_FALSE(real.completed);  // caller falls back to the host engine
  EXPECT_GE(real.deadline_giveups, 1);
  EXPECT_GE(metrics.counter_value("remote.deadline_giveups"), 1u);
  EXPECT_LT(elapsed, 20.0);  // gave up on the budget, not the 30s wall
}

// --- Acceptance: the seeded chaos soak ---------------------------------------

TEST(ChaosSoakTest, EveryJobCompletesBitExactOrFallsBackUnderFaults) {
  const auto scene = chaos_scene();
  constexpr int kJobs = 24;

  service::ServiceConfig cfg;
  cfg.worker_nodes = 1;  // host capacity exists, so 3-worker jobs must
  cfg.execution_threads = 2;  // lease remote nodes to run at all
  cfg.remote_workers = 5;
  cfg.remote_spawn_local = true;
  cfg.remote_heartbeat_seconds = 0.05;
  cfg.remote_hung_timeout_seconds = 0.5;
  cfg.remote_shard_deadline_seconds = 0.5;
  cfg.remote_resend_limit = 4;
  cfg.remote_resend_backoff = 1.5;
  cfg.remote_job_deadline_seconds = 15.0;

  // The attack: one worker hangs (one-way partition -> heartbeat eviction),
  // one gets a corrupted frame (checksum -> malformed -> disconnect), one
  // is killed outright; seeded Poisson noise sprays drops, delays and
  // duplicates over every session. Capacity loss is permanent, but losing
  // three of five workers still leaves jobs a live worker plus the host
  // fallback, so nothing may wedge.
  net::WireFaultPlan plan;
  plan.seed = 2026;
  plan.script.push_back(
      {/*at_frame=*/2, /*ordinal=*/0, WireDirection::kInbound,
       WireFault::kPartitionIn, 0});
  plan.script.push_back({25, 1, WireDirection::kInbound, WireFault::kCorrupt,
                         /*arg=*/3});
  plan.script.push_back({35, 2, WireDirection::kInbound, WireFault::kKill,
                         0});
  Rng noise_rng(7);
  const auto noise = net::poisson_wire_script(
      noise_rng, /*frame_horizon=*/2000, /*mean_interarrival_frames=*/60.0,
      {WireFault::kDrop, WireFault::kDelay, WireFault::kDuplicate},
      /*sessions=*/5);
  plan.script.insert(plan.script.end(), noise.begin(), noise.end());
  cfg.remote_faults = std::move(plan);

  service::FusionService service(cfg);
  std::vector<service::JobId> ids;
  for (int i = 0; i < kJobs; ++i) {
    service::JobRequest r;
    r.tenant = "chaos";
    r.config.mode = core::ExecutionMode::kFull;
    r.config.workers = 3;
    r.config.tiles_per_worker = 2;
    r.config.shape = {scene.cube.width(), scene.cube.height(),
                      scene.cube.bands()};
    r.config.cube = &scene.cube;
    const auto submitted = service.submit(std::move(r));
    ASSERT_TRUE(submitted.accepted());
    ids.push_back(submitted.id);
  }

  const service::ServiceReport report = service.run();

  // Nothing aborted (we are here), nothing wedged, nothing was stranded
  // past its deadline: every job completed, remotely or via host fallback.
  ASSERT_TRUE(report.all_completed);
  EXPECT_EQ(report.remote_workers_attached, 5);
  EXPECT_EQ(static_cast<int>(report.jobs.size()), kJobs);

  // The hung worker was evicted by heartbeat supervision, and the fault
  // layer counted into the service's metrics registry.
  ASSERT_NE(service.remote_pool(), nullptr);
  EXPECT_GE(service.remote_pool()->evictions(), 1);
  EXPECT_GE(report.remote_disconnects, 1);
  EXPECT_EQ(report.remote_disconnects, service.remote_pool()->disconnects());
  EXPECT_GE(service.metrics().counter_value("remote.faults.total"), 1u);
  EXPECT_NE(report.metrics_json.find("remote.faults.total"),
            std::string::npos);

  // Chaos may push individual jobs onto the host pool — a job whose leased
  // remote workers all died never even starts a remote attempt, and one
  // that starts and fails counts as a fallback — but the remote plane as a
  // whole must keep executing jobs.
  EXPECT_GE(report.remote_jobs, 5);
  EXPECT_LE(report.remote_jobs + report.remote_fallbacks, kJobs);

  // Byte-identity under fire: whatever mix of drops, delays, duplicates,
  // re-sends and requeues a remote job survived, its composite is the
  // exact bytes of the sim-oracle chain (fuse_parallel at the same
  // shard/tile counts). A job that fell back to the host ran at the shard
  // count its remote attempt fixed, or at one shard when none started, so
  // it meets the same oracle. Oracles are cached per shard count — workers
  // die as the soak progresses, so later jobs run with fewer shards.
  std::map<int, core::PctResult> oracle;
  int verified = 0;
  for (const service::JobId id : ids) {
    const service::JobRecord& rec =
        report.jobs[static_cast<std::size_t>(id)];
    ASSERT_TRUE(rec.completed) << "job " << id;
    const int shards = std::max(1, rec.remote_workers);
    auto it = oracle.find(shards);
    if (it == oracle.end()) {
      core::ParallelPctConfig pcfg;
      pcfg.tiles = rec.workers * 2;  // tiles_per_worker = 2
      pcfg.cov_shards = shards;
      it = oracle.emplace(shards, core::fuse_parallel(scene.cube, pcfg))
               .first;
    }
    EXPECT_EQ(rec.outcome.composite.data, it->second.composite.data)
        << "job " << id << " with " << shards << " shards"
        << (rec.remote_executed ? "" : " (host fallback)");
    EXPECT_EQ(rec.outcome.eigenvalues, it->second.eigenvalues);
    EXPECT_EQ(rec.outcome.unique_set_size, it->second.unique_set_size);
    EXPECT_EQ(rec.outcome.screen_comparisons, it->second.screen_comparisons);
    EXPECT_EQ(rec.outcome.merge_comparisons, it->second.merge_comparisons);
    ++verified;
  }
  EXPECT_EQ(verified, kJobs);

  // CI uploads this snapshot as the soak's artifact.
  std::ofstream out("METRICS_chaos.json");
  out << report.metrics_json << "\n";
}

TEST(ChaosSoakTest, TelemetryDegradesToMissingLanesNeverGarbles) {
  // The telemetry plane rides the same faulted sockets as the work: frames
  // carrying span batches get dropped, delayed, duplicated, corrupted and
  // killed along with everything else. The contract under fire is strictly
  // "degrade, don't garble": the service must complete its jobs (remotely
  // or by fallback), the unified trace must still VALIDATE — lost batches
  // read as missing lanes, never as unbalanced or misnested events — and
  // ingest-side rejections are counted, not fatal.
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  tracer.set_enabled(false);
  tracer.clear();
  tracer.set_enabled(true);

  const auto scene = chaos_scene();
  constexpr int kJobs = 8;

  service::ServiceConfig cfg;
  cfg.worker_nodes = 1;
  cfg.execution_threads = 2;
  cfg.remote_workers = 3;
  cfg.remote_spawn_local = true;
  cfg.remote_heartbeat_seconds = 0.05;
  cfg.remote_hung_timeout_seconds = 0.5;
  cfg.remote_shard_deadline_seconds = 0.5;
  cfg.remote_resend_limit = 4;
  cfg.remote_job_deadline_seconds = 15.0;
  cfg.scrape_period_seconds = 0.05;

  net::WireFaultPlan plan;
  plan.seed = 4242;
  // A corrupted inbound frame (could be a telemetry batch — the checksum
  // rejects it either way) and one outright kill, plus seeded noise.
  plan.script.push_back({20, 1, WireDirection::kInbound, WireFault::kCorrupt,
                         /*arg=*/2});
  plan.script.push_back({30, 2, WireDirection::kInbound, WireFault::kKill,
                         0});
  Rng noise_rng(13);
  const auto noise = net::poisson_wire_script(
      noise_rng, /*frame_horizon=*/1500, /*mean_interarrival_frames=*/50.0,
      {WireFault::kDrop, WireFault::kDelay, WireFault::kDuplicate},
      /*sessions=*/3);
  plan.script.insert(plan.script.end(), noise.begin(), noise.end());
  cfg.remote_faults = std::move(plan);

  service::FusionService service(cfg);
  for (int i = 0; i < kJobs; ++i) {
    service::JobRequest r;
    r.tenant = "chaos";
    r.config.mode = core::ExecutionMode::kFull;
    r.config.workers = 3;
    r.config.tiles_per_worker = 2;
    r.config.shape = {scene.cube.width(), scene.cube.height(),
                      scene.cube.bands()};
    r.config.cube = &scene.cube;
    ASSERT_TRUE(service.submit(std::move(r)).accepted());
  }
  const service::ServiceReport report = service.run();
  tracer.set_enabled(false);

  // Nothing crashed and nothing wedged.
  ASSERT_TRUE(report.all_completed);

  // The unified trace is still schema-valid: dropped or rejected batches
  // may thin the worker lanes but can never unbalance or garble the trace.
  const obs::RemoteTelemetryCollector* telemetry = service.remote_telemetry();
  ASSERT_NE(telemetry, nullptr);
  const std::string trace_path = "TRACE_chaos_telemetry.json";
  ASSERT_TRUE(obs::write_unified_trace(trace_path, tracer, *telemetry));
  const obs::TraceCheckResult tc = obs::check_chrome_trace_file(trace_path);
  EXPECT_TRUE(tc.ok) << tc.error;
  EXPECT_GE(tc.pids, 1u);  // the coordinator lane survives anything

  // Jobs that DID complete remotely carried live workers to the end; at
  // least one of their lanes must have landed (the service barriers on the
  // job-end flush). Jobs that fell back may have none — that is the
  // "missing lane" degradation, not an error.
  if (report.remote_jobs > 0) {
    int jobs_with_lanes = 0;
    for (const service::JobRecord& rec : report.jobs) {
      if (!rec.remote_executed) continue;
      if (!telemetry->nodes_with_job(rec.id).empty()) ++jobs_with_lanes;
    }
    EXPECT_GE(jobs_with_lanes, 1);
  }

  std::remove(trace_path.c_str());
  tracer.clear();
}

}  // namespace
}  // namespace rif
