// Wire messages of the distributed fusion protocol.
//
// The eight algorithm steps map onto six message types flowing between the
// manager (logical thread 0) and the workers. Every message has an encoded
// form (Writer/Reader) so replica state transfer and CostOnly payload
// substitution both work uniformly: in CostOnly mode the bulk arrays are
// omitted and `declared_bytes` carries the size the real payload would
// have had.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/pct.h"
#include "hsi/partition.h"
#include "scp/types.h"
#include "support/serialize.h"

namespace rif::core {

enum MsgType : std::uint32_t {
  kRequestWork = 1,   ///< worker -> manager: give me the next sub-cube
  kTileAssign = 2,    ///< manager -> worker: sub-cube descriptor (+ data)
  kNoMoreTiles = 3,   ///< manager -> worker: screening pool exhausted
  kScreenResult = 4,  ///< worker -> manager: per-tile unique set
  kCovShard = 5,      ///< manager -> worker: unique-set shard + mean
  kCovSum = 6,        ///< worker -> manager: partial covariance sum
  kTransform = 7,     ///< manager -> worker: transform matrix + scales
  kColorTile = 8,     ///< worker -> manager: colour-mapped tile
};

/// Tile descriptor shared by kTileAssign / kScreenResult / kColorTile.
struct WireTile {
  std::int32_t index = 0;
  std::int32_t y0 = 0;
  std::int32_t rows = 0;
  std::int32_t width = 0;
  std::int32_t bands = 0;

  static WireTile from(const hsi::Tile& t) {
    return {t.index, t.y0, t.rows, t.width, t.bands};
  }
  [[nodiscard]] hsi::Tile to_tile() const {
    return {index, y0, rows, width, bands};
  }
  [[nodiscard]] std::int64_t pixels() const {
    return static_cast<std::int64_t>(rows) * width;
  }
};

struct TileAssignMsg {
  WireTile tile;
  std::vector<float> data;  ///< empty in CostOnly mode

  /// Whether `data` holds exactly the tile's pixels at `bands` bands, the
  /// tile's own band count: what a worker checks before screening a tile
  /// off the wire. Divided, not multiplied, so a hostile geometry cannot
  /// wrap around.
  [[nodiscard]] bool fills(int bands) const {
    const std::int64_t pixels = tile.pixels();
    return bands > 0 && tile.bands == bands && pixels >= 0 &&
           data.size() % static_cast<std::size_t>(bands) == 0 &&
           data.size() / static_cast<std::size_t>(bands) ==
               static_cast<std::uint64_t>(pixels);
  }
  /// Body bytes for a tile of `floats` pixel values.
  static std::size_t body_bytes(std::size_t floats) {
    return sizeof(WireTile) + sizeof(std::uint64_t) + floats * sizeof(float);
  }
  /// Writes the body for `tile` with its pixels straight into `w` — on the
  /// socket plane, into the envelope buffer, the pixels' one copy.
  static void write(Writer& w, const WireTile& tile,
                    std::span<const float> pixels) {
    w.put(tile);
    w.put_span(pixels);
  }
  [[nodiscard]] scp::Message encode(std::uint64_t declared) const {
    Writer w;
    write(w, tile, data);
    return {kTileAssign, std::move(w).take(), declared};
  }
  /// Non-aborting decode for payloads off the socket plane: nullopt on a
  /// truncated, corrupt, or oversized body. The span overloads decode in
  /// place from the frame that carried the body. decode() keeps the
  /// aborting contract for the sim plane, whose payloads never leave the
  /// process.
  static std::optional<TileAssignMsg> try_decode(const scp::Message& m) {
    return try_decode(m.payload);
  }
  static std::optional<TileAssignMsg> try_decode(
      std::span<const std::uint8_t> body) {
    Reader r(body);
    TileAssignMsg out;
    if (!r.try_get(out.tile) || !r.try_get_vector(out.data) ||
        !r.exhausted()) {
      return std::nullopt;
    }
    return out;
  }
  static TileAssignMsg decode(const scp::Message& m) {
    auto out = try_decode(m);
    RIF_CHECK_MSG(out.has_value(), "malformed TileAssignMsg");
    return std::move(*out);
  }
};

struct ScreenResultMsg {
  WireTile tile;
  std::uint64_t unique_count = 0;   ///< vectors found (model value in CostOnly)
  std::uint64_t comparisons = 0;    ///< screening comparisons performed
  std::vector<float> vectors;       ///< unique vectors; empty in CostOnly

  [[nodiscard]] scp::Message encode(std::uint64_t declared) const {
    Writer w;
    w.put(tile);
    w.put<std::uint64_t>(unique_count);
    w.put<std::uint64_t>(comparisons);
    w.put_span(std::span<const float>(vectors));
    return {kScreenResult, std::move(w).take(), declared};
  }
  static std::optional<ScreenResultMsg> try_decode(const scp::Message& m) {
    return try_decode(m.payload);
  }
  static std::optional<ScreenResultMsg> try_decode(
      std::span<const std::uint8_t> body) {
    Reader r(body);
    ScreenResultMsg out;
    if (!r.try_get(out.tile) || !r.try_get(out.unique_count) ||
        !r.try_get(out.comparisons) || !r.try_get_vector(out.vectors) ||
        !r.exhausted()) {
      return std::nullopt;
    }
    return out;
  }
  static ScreenResultMsg decode(const scp::Message& m) {
    auto out = try_decode(m);
    RIF_CHECK_MSG(out.has_value(), "malformed ScreenResultMsg");
    return std::move(*out);
  }
};

struct CovShardMsg {
  std::uint64_t shard_index = 0;  ///< which shard this is; echoed in CovSum
  std::uint64_t shard_count = 0;  ///< unique vectors in this shard
  std::vector<float> vectors;     ///< empty in CostOnly
  std::vector<double> mean;       ///< unique-set mean (step 3 output);
                                  ///< empty in CostOnly

  [[nodiscard]] scp::Message encode(std::uint64_t declared) const {
    Writer w;
    w.put<std::uint64_t>(shard_index);
    w.put<std::uint64_t>(shard_count);
    w.put_span(std::span<const float>(vectors));
    w.put_span(std::span<const double>(mean));
    return {kCovShard, std::move(w).take(), declared};
  }
  static std::optional<CovShardMsg> try_decode(const scp::Message& m) {
    return try_decode(m.payload);
  }
  static std::optional<CovShardMsg> try_decode(
      std::span<const std::uint8_t> body) {
    Reader r(body);
    CovShardMsg out;
    if (!r.try_get(out.shard_index) || !r.try_get(out.shard_count) ||
        !r.try_get_vector(out.vectors) || !r.try_get_vector(out.mean) ||
        !r.exhausted()) {
      return std::nullopt;
    }
    // shard_count vectors of mean.size() bands each (none in CostOnly).
    // Divided, not multiplied: a hostile count must not wrap around.
    const std::size_t dims = out.mean.size();
    if (dims == 0 ? !out.vectors.empty()
                  : out.vectors.size() % dims != 0 ||
                        out.vectors.size() / dims != out.shard_count) {
      return std::nullopt;
    }
    return out;
  }
  static CovShardMsg decode(const scp::Message& m) {
    auto out = try_decode(m);
    RIF_CHECK_MSG(out.has_value(), "malformed CovShardMsg");
    return std::move(*out);
  }
};

struct CovSumMsg {
  std::uint64_t shard_index = 0;  ///< echoed from the CovShard this answers,
                                  ///< so replies pair with shards explicitly
                                  ///< rather than by per-worker FIFO position
  std::vector<std::uint8_t> accumulator;  ///< CovarianceAccumulator::encode()

  [[nodiscard]] scp::Message encode(std::uint64_t declared) const {
    Writer w;
    w.put<std::uint64_t>(shard_index);
    w.put_span(std::span<const std::uint8_t>(accumulator));
    return {kCovSum, std::move(w).take(), declared};
  }
  static std::optional<CovSumMsg> try_decode(const scp::Message& m) {
    return try_decode(m.payload);
  }
  static std::optional<CovSumMsg> try_decode(
      std::span<const std::uint8_t> body) {
    Reader r(body);
    CovSumMsg out;
    if (!r.try_get(out.shard_index) || !r.try_get_vector(out.accumulator) ||
        !r.exhausted()) {
      return std::nullopt;
    }
    return out;
  }
  static CovSumMsg decode(const scp::Message& m) {
    auto out = try_decode(m);
    RIF_CHECK_MSG(out.has_value(), "malformed CovSumMsg");
    return std::move(*out);
  }
};

struct TransformMsg {
  std::int32_t components = 0;
  std::int32_t bands = 0;
  std::vector<double> matrix;      ///< components x bands, row-major
  std::vector<double> mean;
  std::vector<double> scale_mean;  ///< per-component colour scales
  std::vector<double> scale_gain;

  /// The manager barrier's projection, as sent to the workers. The bias is
  /// not sent: projection() derives it again from the matrix and the mean.
  static TransformMsg from(const Projection& p) {
    TransformMsg tm;
    tm.components = p.matrix.rows();
    tm.bands = p.matrix.cols();
    tm.matrix.assign(p.matrix.data(),
                     p.matrix.data() + tm.components * tm.bands);
    tm.mean = p.mean;
    for (const ComponentScale& s : p.scales) {
      tm.scale_mean.push_back(s.mean);
      tm.scale_gain.push_back(s.gain);
    }
    return tm;
  }
  /// The projection a worker colours its tiles with. Needs the shape
  /// try_decode vets.
  [[nodiscard]] Projection projection() const {
    Projection p;
    p.matrix = linalg::Matrix(components, bands);
    std::copy(matrix.begin(), matrix.end(), p.matrix.data());
    p.mean = mean;
    p.bias = projection_bias(p.matrix, mean);
    for (int c = 0; c < 3; ++c) p.scales[c] = {scale_mean[c], scale_gain[c]};
    return p;
  }

  [[nodiscard]] scp::Message encode(std::uint64_t declared) const {
    Writer w;
    w.put(components);
    w.put(bands);
    w.put_span(std::span<const double>(matrix));
    w.put_span(std::span<const double>(mean));
    w.put_span(std::span<const double>(scale_mean));
    w.put_span(std::span<const double>(scale_gain));
    return {kTransform, std::move(w).take(), declared};
  }
  static std::optional<TransformMsg> try_decode(const scp::Message& m) {
    return try_decode(m.payload);
  }
  static std::optional<TransformMsg> try_decode(
      std::span<const std::uint8_t> body) {
    Reader r(body);
    TransformMsg out;
    if (!r.try_get(out.components) || !r.try_get(out.bands) ||
        !r.try_get_vector(out.matrix) || !r.try_get_vector(out.mean) ||
        !r.try_get_vector(out.scale_mean) ||
        !r.try_get_vector(out.scale_gain) || !r.exhausted()) {
      return std::nullopt;
    }
    // The shape color_shard relies on: a components x bands matrix with at
    // least the three colour components, their scales, and a bands mean.
    if (out.components < 3 || out.bands <= 0 ||
        out.matrix.size() != static_cast<std::uint64_t>(out.components) *
                                 static_cast<std::uint64_t>(out.bands) ||
        out.mean.size() != static_cast<std::size_t>(out.bands) ||
        out.scale_mean.size() < 3 || out.scale_gain.size() < 3) {
      return std::nullopt;
    }
    return out;
  }
  static TransformMsg decode(const scp::Message& m) {
    auto out = try_decode(m);
    RIF_CHECK_MSG(out.has_value(), "malformed TransformMsg");
    return std::move(*out);
  }
};

struct ColorTileMsg {
  WireTile tile;
  std::vector<std::uint8_t> rgb;  ///< rows*width*3 bytes; empty in CostOnly

  [[nodiscard]] scp::Message encode(std::uint64_t declared) const {
    Writer w;
    w.put(tile);
    w.put_span(std::span<const std::uint8_t>(rgb));
    return {kColorTile, std::move(w).take(), declared};
  }
  static std::optional<ColorTileMsg> try_decode(const scp::Message& m) {
    return try_decode(m.payload);
  }
  static std::optional<ColorTileMsg> try_decode(
      std::span<const std::uint8_t> body) {
    Reader r(body);
    ColorTileMsg out;
    if (!r.try_get(out.tile) || !r.try_get_vector(out.rgb) ||
        !r.exhausted()) {
      return std::nullopt;
    }
    return out;
  }
  static ColorTileMsg decode(const scp::Message& m) {
    auto out = try_decode(m);
    RIF_CHECK_MSG(out.has_value(), "malformed ColorTileMsg");
    return std::move(*out);
  }
};

}  // namespace rif::core
