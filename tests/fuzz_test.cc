// Seeded mutation fuzzing of the socket plane's receive path. Frames of the
// two bulk messages, encoded the way the coordinator and the worker encode
// them, are flipped, truncated and spliced, and every mutant runs the whole
// trust-boundary chain: FrameAssembler -> WireEnvelope::try_decode -> the
// message's try_decode, all decoding in place from the frame. The invariant
// is that nothing aborts and nothing reads out of bounds (the ASan leg
// checks the second half). A fixed seed and budget keep the run
// deterministic and short.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/distributed/messages.h"
#include "core/distributed/shard_ops.h"
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
  int tiles = 0;      ///< bodies that decoded as a TileAssignMsg
  int results = 0;    ///< bodies that decoded as a ScreenResultMsg
};

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
    // Both decoders see every body, whatever its declared type.
    if (core::TileAssignMsg::try_decode(env->body())) ++stats.tiles;
    if (core::ScreenResultMsg::try_decode(env->body())) ++stats.results;
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
  const std::vector<std::uint8_t> tile_env =
      seal(core::kTileAssign, tile_assign_body());
  const std::vector<std::uint8_t> result_env =
      seal(core::kScreenResult, screen_result_body());
  const std::vector<std::uint8_t> frames[] = {net::encode_frame(tile_env),
                                              net::encode_frame(result_env)};
  Rng rng(20261017);
  ChainStats stats;
  for (int i = 0; i < kBudget; ++i) {
    for (int f = 0; f < 2; ++f) {
      const auto mutant = mutate(rng, frames[f], frames[1 - f]);
      for (const auto& env : run_chain(rng, mutant, stats)) {
        // Damage anywhere in an envelope fails its checksum; what decodes
        // is a frame that survived the mutation whole.
        EXPECT_TRUE(env == tile_env || env == result_env);
      }
    }
  }
  // The budget reached every stage of the chain.
  EXPECT_GT(stats.envelopes, 0);
  EXPECT_GT(stats.tiles, 0);
  EXPECT_GT(stats.results, 0);
}

TEST(FuzzTest, BodyMutantsUnderValidChecksumsNeverAbort) {
  // A peer that checksums garbage correctly: mutate the message body, then
  // seal it, so the mutants get past the envelope into the body decoders.
  const std::vector<std::uint8_t> bodies[] = {tile_assign_body(),
                                              screen_result_body()};
  const std::uint32_t types[] = {core::kTileAssign, core::kScreenResult};
  Rng rng(7);
  ChainStats stats;
  for (int i = 0; i < kBudget; ++i) {
    for (int b = 0; b < 2; ++b) {
      const auto body = mutate(rng, bodies[b], bodies[1 - b]);
      const auto frame = net::encode_frame(seal(types[b], body));
      EXPECT_EQ(run_chain(rng, frame, stats).size(), 1u);
    }
  }
  EXPECT_EQ(stats.envelopes, 2 * kBudget);
  // Some mutants stay well formed (a flipped pixel is still a tile); most
  // do not, and those must be refused, not aborted on.
  EXPECT_GT(stats.tiles + stats.results, 0);
  EXPECT_LT(stats.tiles + stats.results, 2 * kBudget);
}

}  // namespace
}  // namespace rif
