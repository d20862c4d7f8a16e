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
  /// Whether `floats` values are exactly this tile's pixels at `bands`
  /// bands, the tile's own band count: what a worker checks before
  /// screening a tile off the wire. Divided, not multiplied, so a hostile
  /// geometry cannot wrap around.
  [[nodiscard]] bool filled_by(std::size_t floats, int bands) const {
    const std::int64_t px = pixels();
    return bands > 0 && this->bands == bands && px >= 0 &&
           floats % static_cast<std::size_t>(bands) == 0 &&
           floats / static_cast<std::size_t>(bands) ==
               static_cast<std::uint64_t>(px);
  }
};

/// The body of a message, encoded as an application Message.
template <typename Msg>
[[nodiscard]] scp::Message encode_message(std::uint32_t type, const Msg& msg,
                                          std::uint64_t declared) {
  Writer w;
  w.reserve(msg.body_bytes());
  msg.write(w);
  return {type, std::move(w).take(), declared};
}

/// A kTileAssign body read in place: the tile, and its pixels where they
/// lie in the frame that carried them.
struct TileView {
  WireTile tile;
  std::span<const float> pixels;

  [[nodiscard]] bool fills(int bands) const {
    return tile.filled_by(pixels.size(), bands);
  }
};

struct TileAssignMsg {
  WireTile tile;
  std::vector<float> data;  ///< empty in CostOnly mode

  /// Body bytes for a tile of `floats` pixel values.
  static std::size_t body_bytes(std::size_t floats) {
    return sizeof(WireTile) + sizeof(std::uint64_t) + floats * sizeof(float);
  }
  [[nodiscard]] std::size_t body_bytes() const {
    return body_bytes(data.size());
  }
  /// Writes the body for `tile` with its pixels straight into `w` — on the
  /// socket plane, into the envelope buffer, the pixels' one copy.
  template <typename Bytes>
  static void write(BasicWriter<Bytes>& w, const WireTile& tile,
                    std::span<const float> pixels) {
    w.put(tile);
    w.put_span(pixels);
  }
  template <typename Bytes>
  void write(BasicWriter<Bytes>& w) const {
    write(w, tile, data);
  }
  [[nodiscard]] scp::Message encode(std::uint64_t declared) const {
    return encode_message(kTileAssign, *this, declared);
  }
  /// Non-aborting in-place decode for bodies off the socket plane: the
  /// tile and a view of its pixels inside `body`, which must outlive the
  /// view. nullopt on a truncated body, a pixel count that disagrees with
  /// the bytes that follow it, a ragged float tail, or pixels not aligned
  /// for float.
  static std::optional<TileView> try_view(std::span<const std::uint8_t> body) {
    Reader r(body);
    TileView out;
    std::uint64_t count = 0;
    if (!r.try_get(out.tile) || !r.try_get(count)) return std::nullopt;
    const std::span<const std::uint8_t> bytes = body.last(r.remaining());
    if (bytes.size() % sizeof(float) != 0 ||
        bytes.size() / sizeof(float) != count) {
      return std::nullopt;
    }
    if (count == 0) return out;
    // The floats are read where they lie: a frame is an array of unsigned
    // char, which may hold objects of any implicit-lifetime type, and the
    // char stores that filled it alias them. They need float alignment.
    if (reinterpret_cast<std::uintptr_t>(bytes.data()) % alignof(float) != 0) {
      return std::nullopt;
    }
    out.pixels = {reinterpret_cast<const float*>(bytes.data()),
                  static_cast<std::size_t>(count)};
    return out;
  }
  /// try_view() with the pixels copied out. decode() keeps the aborting
  /// contract for the sim plane, whose payloads never leave the process.
  static std::optional<TileAssignMsg> try_decode(const scp::Message& m) {
    return try_decode(m.payload);
  }
  static std::optional<TileAssignMsg> try_decode(
      std::span<const std::uint8_t> body) {
    const std::optional<TileView> view = try_view(body);
    if (!view) return std::nullopt;
    return TileAssignMsg{view->tile,
                         {view->pixels.begin(), view->pixels.end()}};
  }
  static TileAssignMsg decode(const scp::Message& m) {
    auto out = try_decode(m);
    RIF_CHECK_MSG(out.has_value(), "malformed TileAssignMsg");
    return std::move(*out);
  }
};

/// The worker replies and the coordinator's shard and transform messages
/// below write their bodies with write(), sized by body_bytes(), straight
/// into whatever buffer the caller encodes: an envelope's on the socket
/// plane, a Message's through encode() on the sim plane. try_decode() is
/// the non-aborting decode for bodies off the socket plane (nullopt on a
/// truncated, corrupt or oversized body); decode() aborts, for the sim
/// plane.
struct ScreenResultMsg {
  WireTile tile;
  std::uint64_t unique_count = 0;   ///< vectors found (model value in CostOnly)
  std::uint64_t comparisons = 0;    ///< screening comparisons performed
  std::vector<float> vectors;       ///< unique vectors; empty in CostOnly

  [[nodiscard]] std::size_t body_bytes() const {
    return sizeof(WireTile) + 3 * sizeof(std::uint64_t) +
           vectors.size() * sizeof(float);
  }
  template <typename Bytes>
  void write(BasicWriter<Bytes>& w) const {
    w.put(tile);
    w.put(unique_count);
    w.put(comparisons);
    w.put_span(std::span<const float>(vectors));
  }
  [[nodiscard]] scp::Message encode(std::uint64_t declared) const {
    return encode_message(kScreenResult, *this, declared);
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

  [[nodiscard]] std::size_t body_bytes() const {
    return 4 * sizeof(std::uint64_t) + vectors.size() * sizeof(float) +
           mean.size() * sizeof(double);
  }
  template <typename Bytes>
  void write(BasicWriter<Bytes>& w) const {
    w.put(shard_index);
    w.put(shard_count);
    w.put_span(std::span<const float>(vectors));
    w.put_span(std::span<const double>(mean));
  }
  [[nodiscard]] scp::Message encode(std::uint64_t declared) const {
    return encode_message(kCovShard, *this, declared);
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

  [[nodiscard]] std::size_t body_bytes() const {
    return 2 * sizeof(std::uint64_t) + accumulator.size();
  }
  template <typename Bytes>
  void write(BasicWriter<Bytes>& w) const {
    w.put(shard_index);
    w.put_span(std::span<const std::uint8_t>(accumulator));
  }
  [[nodiscard]] scp::Message encode(std::uint64_t declared) const {
    return encode_message(kCovSum, *this, declared);
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

  [[nodiscard]] std::size_t body_bytes() const {
    return 2 * sizeof(std::int32_t) + 4 * sizeof(std::uint64_t) +
           (matrix.size() + mean.size() + scale_mean.size() +
            scale_gain.size()) *
               sizeof(double);
  }
  template <typename Bytes>
  void write(BasicWriter<Bytes>& w) const {
    w.put(components);
    w.put(bands);
    w.put_span(std::span<const double>(matrix));
    w.put_span(std::span<const double>(mean));
    w.put_span(std::span<const double>(scale_mean));
    w.put_span(std::span<const double>(scale_gain));
  }
  [[nodiscard]] scp::Message encode(std::uint64_t declared) const {
    return encode_message(kTransform, *this, declared);
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

  [[nodiscard]] std::size_t body_bytes() const {
    return sizeof(WireTile) + sizeof(std::uint64_t) + rgb.size();
  }
  template <typename Bytes>
  void write(BasicWriter<Bytes>& w) const {
    w.put(tile);
    w.put_span(std::span<const std::uint8_t>(rgb));
  }
  [[nodiscard]] scp::Message encode(std::uint64_t declared) const {
    return encode_message(kColorTile, *this, declared);
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
