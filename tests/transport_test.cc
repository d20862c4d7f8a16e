// The real byte transport, bottom-up: frame codec round-trips, incremental
// reassembly from arbitrary read() fragments, corruption poisoning, the
// wire envelope and worker-plane body codecs (including truncated/oversized
// death checks and exhaustive checksum detection), and a live
// SocketServer/SocketClient exchange over loopback TCP and a socketpair,
// including gather writes cut short by a tiny send buffer.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "net/frame.h"
#include "net/socket_transport.h"
#include "scp/wire.h"

namespace rif::net {
namespace {

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int b : v) out.push_back(static_cast<std::uint8_t>(b));
  return out;
}

// --- Frame codec ------------------------------------------------------------

TEST(FrameTest, EncodeRoundTripsThroughAssembler) {
  const auto payload = bytes_of({1, 2, 3, 250, 255});
  const auto frame = encode_frame(payload);
  EXPECT_EQ(frame.size(), framed_size(payload.size()));

  FrameAssembler assembler;
  std::vector<std::vector<std::uint8_t>> got;
  ASSERT_TRUE(assembler.feed(frame.data(), frame.size(),
                             [&](FrameBytes p) {
                               got.emplace_back(p.begin(), p.end());
                             }));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], payload);
  EXPECT_EQ(assembler.pending_bytes(), 0u);
}

TEST(FrameTest, EmptyPayloadIsAValidFrame) {
  const auto frame = encode_frame({});
  FrameAssembler assembler;
  int frames = 0;
  ASSERT_TRUE(assembler.feed(frame.data(), frame.size(),
                             [&](FrameBytes p) {
                               EXPECT_TRUE(p.empty());
                               ++frames;
                             }));
  EXPECT_EQ(frames, 1);
}

TEST(FrameTest, ReassemblesFromSingleByteFragments) {
  // A real socket can return one byte per read(); the assembler must
  // produce the identical frame sequence regardless of fragmentation.
  std::vector<std::uint8_t> stream;
  std::vector<std::vector<std::uint8_t>> sent;
  for (int i = 0; i < 5; ++i) {
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(i) * 7 + 1);
    for (std::size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<std::uint8_t>(i * 10 + j);
    }
    const auto frame = encode_frame(payload);
    stream.insert(stream.end(), frame.begin(), frame.end());
    sent.push_back(std::move(payload));
  }

  FrameAssembler assembler;
  std::vector<std::vector<std::uint8_t>> got;
  for (const std::uint8_t b : stream) {
    ASSERT_TRUE(assembler.feed(&b, 1, [&](FrameBytes p) {
      got.emplace_back(p.begin(), p.end());
    }));
  }
  EXPECT_EQ(got, sent);
  EXPECT_EQ(assembler.pending_bytes(), 0u);
}

TEST(FrameTest, ManyFramesInOneFeed) {
  // The converse: one read() returning several complete frames plus the
  // start of another.
  const auto a = bytes_of({1});
  const auto b = bytes_of({2, 2});
  const auto c = bytes_of({3, 3, 3});
  std::vector<std::uint8_t> stream;
  for (const auto* p : {&a, &b, &c}) {
    const auto f = encode_frame(*p);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  const auto d = encode_frame(bytes_of({4, 4, 4, 4}));
  stream.insert(stream.end(), d.begin(), d.begin() + 6);  // partial tail

  FrameAssembler assembler;
  std::vector<std::vector<std::uint8_t>> got;
  ASSERT_TRUE(assembler.feed(stream.data(), stream.size(),
                             [&](FrameBytes p) {
                               got.emplace_back(p.begin(), p.end());
                             }));
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], a);
  EXPECT_EQ(got[1], b);
  EXPECT_EQ(got[2], c);
  EXPECT_EQ(assembler.pending_bytes(), 6u);
}

TEST(FrameTest, BadMagicPoisonsTheAssembler) {
  auto frame = encode_frame(bytes_of({1, 2, 3}));
  frame[0] ^= 0xFF;  // corrupt the magic
  FrameAssembler assembler;
  int frames = 0;
  EXPECT_FALSE(assembler.feed(frame.data(), frame.size(),
                              [&](FrameBytes) { ++frames; }));
  EXPECT_EQ(frames, 0);
  EXPECT_TRUE(assembler.corrupt());
  // Poisoned: even a pristine frame is refused until the connection drops.
  const auto good = encode_frame(bytes_of({9}));
  EXPECT_FALSE(assembler.feed(good.data(), good.size(),
                              [&](FrameBytes) { ++frames; }));
  EXPECT_EQ(frames, 0);
}

TEST(FrameTest, OversizedLengthPoisonsTheAssembler) {
  auto frame = encode_frame(bytes_of({1}));
  // Rewrite the length word to just past the cap.
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(frame.data() + 4, &huge, sizeof(huge));
  FrameAssembler assembler;
  EXPECT_FALSE(assembler.feed(frame.data(), frame.size(),
                              [](FrameBytes) { FAIL(); }));
  EXPECT_TRUE(assembler.corrupt());
}

TEST(FrameTest, LargeFrameIsFilledInPlaceFromFragments) {
  // A payload far past the staging buffer, fed the way a reader feeds it:
  // fragments recv()'d straight into window(). It comes out byte-identical,
  // in the very buffer the windows after its header pointed into.
  FrameBytes payload(3 * FrameAssembler::kGrowBytes + 12345);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  const auto frame = encode_frame(payload);
  constexpr std::size_t kFragments[] = {1, 7, 4096, 65539, 300001, 1 << 20};

  FrameAssembler assembler;
  std::vector<FrameBytes> got;
  // Where each window after the header began, and the payload offset the
  // bytes written there belong at.
  std::vector<std::pair<const std::uint8_t*, std::size_t>> windows;
  std::size_t pos = 0;
  for (std::size_t k = 0; pos < frame.size(); ++k) {
    const std::span<std::uint8_t> win = assembler.window();
    ASSERT_FALSE(win.empty());
    const std::size_t n =
        std::min({win.size(), frame.size() - pos,
                  kFragments[k % std::size(kFragments)]});
    std::memcpy(win.data(), frame.data() + pos, n);
    if (pos >= kFrameHeaderBytes) {
      windows.emplace_back(win.data(), pos - kFrameHeaderBytes);
    }
    ASSERT_TRUE(assembler.commit(
        n, [&](FrameBytes p) { got.push_back(std::move(p)); }));
    pos += n;
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], payload);
  ASSERT_GT(windows.size(), 3u);
  for (const auto& [at, offset] : windows) {
    EXPECT_EQ(at, got[0].data() + offset) << "offset " << offset;
  }
  EXPECT_EQ(assembler.pending_bytes(), 0u);
}

TEST(FrameTest, HostileLengthWindowStaysOneGrowthStepAhead) {
  // A header announcing the largest legal payload, then a trickle of
  // bytes. window() never reaches more than one growth step past what
  // arrived, so the reader writes, and the kernel commits, no page the
  // peer has not sent bytes for.
  FrameAssembler assembler;
  const auto header = frame_header(kMaxFramePayload);
  ASSERT_TRUE(assembler.feed(header.data(), header.size(),
                             [](FrameBytes) { FAIL(); }));
  std::size_t received = 0;
  for (int i = 0; i < 40; ++i) {
    const std::span<std::uint8_t> win = assembler.window();
    ASSERT_FALSE(win.empty());
    EXPECT_LE(win.size(), FrameAssembler::kGrowBytes);
    EXPECT_EQ(assembler.pending_bytes(), kFrameHeaderBytes + received);
    const std::size_t n = std::min<std::size_t>(win.size(), i % 2 ? 1 : 99991);
    std::memset(win.data(), 0x5A, n);
    ASSERT_TRUE(assembler.commit(n, [](FrameBytes) { FAIL(); }));
    received += n;
  }
  EXPECT_FALSE(assembler.corrupt());
}

// --- Wire envelope + worker-plane bodies ------------------------------------

TEST(WireEnvelopeTest, FullRoundTrip) {
  scp::WireEnvelope env;
  env.kind = scp::FrameKind::kApp;
  env.src_node = 3;
  env.dst_node = 0;
  env.src = {7, 2, 11};
  env.dst = {1, 0, 4};
  env.seq = 99;
  env.msg_type = 4;
  env.declared = 123456;
  env.flag = 1;
  env.payload = bytes_of({10, 20, 30});

  const scp::WireEnvelope back = scp::WireEnvelope::decode(env.encode());
  EXPECT_EQ(back.kind, env.kind);
  EXPECT_EQ(back.src_node, env.src_node);
  EXPECT_EQ(back.dst_node, env.dst_node);
  EXPECT_EQ(back.src.tid, env.src.tid);
  EXPECT_EQ(back.src.slot, env.src.slot);
  EXPECT_EQ(back.src.incarnation, env.src.incarnation);
  EXPECT_EQ(back.dst.tid, env.dst.tid);
  EXPECT_EQ(back.seq, env.seq);
  EXPECT_EQ(back.msg_type, env.msg_type);
  EXPECT_EQ(back.declared, env.declared);
  EXPECT_EQ(back.flag, env.flag);
  EXPECT_EQ(back.payload, env.payload);

  const scp::Message msg = back.to_message();
  EXPECT_EQ(msg.type, env.msg_type);
  EXPECT_EQ(msg.payload, env.payload);
  EXPECT_EQ(msg.declared_bytes, env.declared);
}

TEST(WireEnvelopeTest, RvalueToMessageMovesTheDecodedBody) {
  // The sim transport's receive path: decode() copies the body out of the
  // frame once, and the Message takes that copy over.
  scp::WireEnvelope env;
  env.kind = scp::FrameKind::kApp;
  env.msg_type = 2;
  env.declared = 64;
  env.payload = bytes_of({4, 5, 6, 7});
  scp::WireEnvelope back = scp::WireEnvelope::decode(env.encode());
  const std::uint8_t* body = back.payload.data();
  const scp::Message msg = std::move(back).to_message();
  EXPECT_EQ(msg.payload.data(), body);
  EXPECT_EQ(msg.payload, env.payload);
  EXPECT_EQ(msg.type, env.msg_type);
  EXPECT_EQ(msg.declared_bytes, env.declared);

  // An envelope that kept its frame still copies the body out of it.
  const std::vector<std::uint8_t> wire = env.encode();
  auto owned =
      scp::WireEnvelope::try_decode(FrameBytes(wire.begin(), wire.end()));
  ASSERT_TRUE(owned.has_value());
  EXPECT_EQ(std::move(*owned).to_message().payload, env.payload);
}

TEST(WireEnvelopeTest, MalformedEnvelopeDies) {
  scp::WireEnvelope env;
  env.payload = bytes_of({1, 2, 3, 4});
  const auto wire = env.encode();

  auto truncated = wire;
  truncated.resize(truncated.size() - 2);
  EXPECT_DEATH((void)scp::WireEnvelope::decode(truncated), "truncated");

  auto oversized = wire;
  oversized.push_back(0);
  EXPECT_DEATH((void)scp::WireEnvelope::decode(oversized), "oversized");

  auto bad_kind = wire;
  bad_kind[0] = 0xEE;  // kind word far outside the enum
  EXPECT_DEATH((void)scp::WireEnvelope::decode(bad_kind),
               "unknown frame kind");
}

TEST(WireEnvelopeTest, TryDecodeRejectsMalformedWithoutDying) {
  scp::WireEnvelope env;
  env.kind = scp::FrameKind::kApp;
  env.seq = 7;
  env.payload = bytes_of({1, 2, 3, 4});
  const auto wire = env.encode();

  // A valid frame decodes to the same envelope the fatal path produces.
  const auto ok = scp::WireEnvelope::try_decode(wire);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->seq, 7u);
  EXPECT_EQ(ok->payload, env.payload);

  // Every malformation that kills decode() is a clean nullopt here: this
  // is the entry point for frames from untrusted socket peers.
  auto truncated = wire;
  truncated.resize(truncated.size() - 2);
  EXPECT_FALSE(scp::WireEnvelope::try_decode(truncated).has_value());

  auto oversized = wire;
  oversized.push_back(0);
  EXPECT_FALSE(scp::WireEnvelope::try_decode(oversized).has_value());

  auto bad_kind = wire;
  bad_kind[0] = 0xEE;
  EXPECT_FALSE(scp::WireEnvelope::try_decode(bad_kind).has_value());

  EXPECT_FALSE(scp::WireEnvelope::try_decode(
                   std::span<const std::uint8_t>()).has_value());
  EXPECT_FALSE(
      scp::WireEnvelope::try_decode(bytes_of({1, 0, 0, 0})).has_value());
}

TEST(WireEnvelopeTest, WorkerPlaneBodiesRoundTripAndBoundsCheck) {
  scp::JobStartBody job;
  job.job_id = 42;
  job.width = 320;
  job.height = 240;
  job.bands = 105;
  job.screening_threshold = 0.05;
  job.output_components = 3;
  const scp::JobStartBody jback = scp::JobStartBody::decode(job.encode());
  EXPECT_EQ(jback.job_id, 42);
  EXPECT_EQ(jback.width, 320);
  EXPECT_EQ(jback.bands, 105);
  EXPECT_DOUBLE_EQ(jback.screening_threshold, 0.05);

  auto short_job = job.encode();
  short_job.resize(short_job.size() - 1);
  EXPECT_DEATH((void)scp::JobStartBody::decode(short_job), "malformed");
  auto long_job = job.encode();
  long_job.push_back(0);
  EXPECT_DEATH((void)scp::JobStartBody::decode(long_job), "malformed");
}

TEST(WireEnvelopeTest, ChecksumRejectsEveryBitFlipAndTruncation) {
  // Payload sizes on both sides of the checksum's 32-byte word loop, so the
  // block lanes, the leftover words and the partial tail word are all hit.
  for (const std::size_t size : {0u, 1u, 31u, 32u, 33u, 100u}) {
    SCOPED_TRACE(size);
    scp::WireEnvelope env;
    env.kind = scp::FrameKind::kApp;
    env.src_node = 2;
    env.dst_node = 5;
    env.src = {3, 1, 9};
    env.dst = {4, 0, 2};
    env.seq = 77;
    env.msg_type = 6;
    env.declared = 4096;
    env.flag = 1;
    for (std::size_t i = 0; i < size; ++i) {
      env.payload.push_back(static_cast<std::uint8_t>(i * 37 + 11));
    }
    const std::vector<std::uint8_t> wire = env.encode();
    ASSERT_EQ(wire.size(), scp::WireEnvelope::kHeaderBytes + size +
                               scp::WireEnvelope::kTrailerBytes);

    // Exact round trip, through both the borrowing and the owning decode.
    const auto copied = scp::WireEnvelope::try_decode(wire);
    ASSERT_TRUE(copied.has_value());
    EXPECT_EQ(copied->payload, env.payload);
    EXPECT_EQ(copied->encode(), wire);
    auto owned =
        scp::WireEnvelope::try_decode(FrameBytes(wire.begin(), wire.end()));
    ASSERT_TRUE(owned.has_value());
    EXPECT_TRUE(owned->payload.empty());
    EXPECT_EQ(std::vector<std::uint8_t>(owned->body().begin(),
                                        owned->body().end()),
              env.payload);
    owned->payload.assign(owned->body().begin(), owned->body().end());
    EXPECT_EQ(owned->encode(), wire);

    // Every single-bit flip of every byte — header, payload and trailer.
    int accepted_flips = 0;
    for (std::size_t i = 0; i < wire.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        auto flipped = wire;
        flipped[i] ^= static_cast<std::uint8_t>(1u << bit);
        if (scp::WireEnvelope::try_decode(flipped)) ++accepted_flips;
      }
    }
    EXPECT_EQ(accepted_flips, 0);

    // Every truncation length.
    int accepted_cuts = 0;
    for (std::size_t keep = 0; keep < wire.size(); ++keep) {
      const std::vector<std::uint8_t> cut(wire.begin(),
                                          wire.begin() + keep);
      if (scp::WireEnvelope::try_decode(cut)) ++accepted_cuts;
    }
    EXPECT_EQ(accepted_cuts, 0);
  }
}

// --- Live sockets -----------------------------------------------------------

/// Collects server-side frames/closes under a lock so the poll thread and
/// the test thread can rendezvous.
struct ServerLog {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<SessionId, FrameBytes>> frames;
  std::vector<SessionId> closed;

  void on_frame(SessionId s, FrameBytes f) {
    std::lock_guard lock(mu);
    frames.emplace_back(s, std::move(f));
    cv.notify_all();
  }
  void on_closed(SessionId s) {
    std::lock_guard lock(mu);
    closed.push_back(s);
    cv.notify_all();
  }
  bool wait_frames(std::size_t n, double seconds = 10.0) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, std::chrono::duration<double>(seconds),
                       [&] { return frames.size() >= n; });
  }
  bool wait_closed(std::size_t n, double seconds = 10.0) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, std::chrono::duration<double>(seconds),
                       [&] { return closed.size() >= n; });
  }
};

TEST(SocketTest, LoopbackTcpEchoExchange) {
  // Through the std::vector overloads of start(), send() and read_frame().
  SocketServer server;
  ASSERT_TRUE(server.listen_tcp(0));  // ephemeral port
  ASSERT_NE(server.port(), 0);

  ServerLog log;
  server.start(
      [&](SessionId s, std::vector<std::uint8_t> f) {
        // Echo every frame back with a marker byte appended.
        f.push_back(0x5A);
        server.send(s, f);
        log.on_frame(s, FrameBytes(f.begin(), f.end()));
      },
      [&](SessionId s) { log.on_closed(s); });

  SocketClient client;
  ASSERT_TRUE(client.connect_tcp("127.0.0.1", server.port()));
  const auto payload = bytes_of({1, 2, 3, 4, 5});
  ASSERT_TRUE(client.send_frame(payload));

  std::vector<std::uint8_t> reply;
  ASSERT_TRUE(client.read_frame(reply));
  auto expected = payload;
  expected.push_back(0x5A);
  EXPECT_EQ(reply, expected);

  client.close();
  ASSERT_TRUE(log.wait_closed(1));
  server.stop();
}

TEST(SocketTest, AdoptedSocketpairCarriesLargeFrames) {
  SocketServer server;
  ServerLog log;
  server.start(
      [&](SessionId s, FrameBytes f) {
        log.on_frame(s, std::move(f));
      },
      [&](SessionId s) { log.on_closed(s); });

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const SessionId session = server.adopt(sv[0]);
  ASSERT_NE(session, kNoSession);

  SocketClient client;
  client.adopt(sv[1]);

  // A payload far beyond any single read()/write() quantum, so both the
  // client's partial-write loop and the server's incremental reassembly
  // are exercised.
  FrameBytes big(4 * 1024 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  ASSERT_TRUE(client.send_frame(big));
  ASSERT_TRUE(log.wait_frames(1));
  {
    std::lock_guard lock(log.mu);
    ASSERT_EQ(log.frames.size(), 1u);
    EXPECT_EQ(log.frames[0].first, session);
    EXPECT_EQ(log.frames[0].second, big);
  }

  // Server -> client, same size, then a graceful close: the client must
  // see the frame before EOF.
  ASSERT_TRUE(server.send(session, big));
  server.close_session(session);
  FrameBytes got;
  ASSERT_TRUE(client.read_frame(got));
  EXPECT_EQ(got, big);
  EXPECT_FALSE(client.read_frame(got));  // EOF after the drain

  ASSERT_TRUE(log.wait_closed(1));
  client.close();
  server.stop();
}

/// Frame `i` of the mixed-size stream below: sizes from empty through
/// control-frame, staged and multi-megabyte, with content unique per frame.
FrameBytes mixed_frame(int i) {
  static constexpr std::size_t kSizes[] = {0,     1,         7,     64,
                                           4093,  65536 - 8, 65536, 300000,
                                           2 << 20};
  FrameBytes f(kSizes[static_cast<std::size_t>(i) %
                                     std::size(kSizes)]);
  for (std::size_t j = 0; j < f.size(); ++j) {
    f[j] = static_cast<std::uint8_t>(j * 131 + static_cast<std::size_t>(i));
  }
  return f;
}

void shrink_send_buffer(int fd) {
  const int bytes = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)),
            0);
}

TEST(SocketTest, GatherWritesDeliverMixedFramesInOrderAcrossPartialWrites) {
  // A tiny send buffer forces nearly every gather write to stop part way
  // through a header or a payload, in both directions.
  SocketServer server;
  ServerLog log;
  server.start(
      [&](SessionId s, FrameBytes f) {
        log.on_frame(s, std::move(f));
      },
      [&](SessionId s) { log.on_closed(s); });
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  shrink_send_buffer(sv[0]);
  shrink_send_buffer(sv[1]);
  const SessionId session = server.adopt(sv[0]);
  SocketClient client;
  client.adopt(sv[1]);

  constexpr int kFrames = 40;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(server.send(session, mixed_frame(i)));
  }
  for (int i = 0; i < kFrames; ++i) {
    FrameBytes got;
    ASSERT_TRUE(client.read_frame(got)) << "frame " << i;
    ASSERT_EQ(got, mixed_frame(i)) << "frame " << i;
  }

  // Client -> server: the blocking gather write's partial-write loop.
  std::thread sender([&] {
    for (int i = 0; i < kFrames; ++i) {
      if (!client.send_frame(mixed_frame(kFrames + i))) return;
    }
  });
  ASSERT_TRUE(log.wait_frames(kFrames, 30.0));
  sender.join();
  {
    std::lock_guard lock(log.mu);
    for (int i = 0; i < kFrames; ++i) {
      EXPECT_EQ(log.frames[static_cast<std::size_t>(i)].second,
                mixed_frame(kFrames + i))
          << "frame " << i;
    }
  }
  client.close();
  ASSERT_TRUE(log.wait_closed(1));
  server.stop();
}

TEST(SocketTest, SendLimitedRefusesPastThePendingCapAndKeepsOrder) {
  SocketServer server;
  server.start([](SessionId, FrameBytes) {},
               [](SessionId) {});
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  shrink_send_buffer(sv[0]);
  const SessionId session = server.adopt(sv[0]);
  SocketClient client;
  client.adopt(sv[1]);

  // The client reads nothing yet, so queued bytes pile up until the cap
  // refuses a frame; every later attempt is refused too.
  constexpr std::size_t kCap = 256 * 1024;
  int accepted = 0;
  while (server.send_limited(session, mixed_frame(4), kCap)) {
    ++accepted;
    ASSERT_LT(accepted, 1000) << "the pending cap never refused a frame";
  }
  EXPECT_GE(accepted, 1);
  EXPECT_FALSE(server.send_limited(session, mixed_frame(0), kCap));

  // What was accepted arrives intact and in order, then nothing else.
  server.close_session(session);
  for (int i = 0; i < accepted; ++i) {
    FrameBytes got;
    ASSERT_TRUE(client.read_frame(got)) << "frame " << i;
    EXPECT_EQ(got, mixed_frame(4));
  }
  FrameBytes extra;
  EXPECT_FALSE(client.read_frame(extra));
  client.close();
  server.stop();
}

}  // namespace
}  // namespace rif::net
