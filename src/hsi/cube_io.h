// Hyper-spectral cube file I/O in an ENVI-like format.
//
// A cube is stored as a raw little-endian float32 data file plus a text
// header "<path>.hdr" with the classic ENVI keys (samples, lines, bands,
// interleave, wavelength). All three standard interleaves are supported:
//   BIP  band-interleaved-by-pixel  (the in-memory layout of ImageCube)
//   BIL  band-interleaved-by-line
//   BSQ  band-sequential (one plane per band)
// Loading converts any interleave to the internal BIP layout.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hsi/image_cube.h"

namespace rif::hsi {

enum class Interleave { kBip, kBil, kBsq };

const char* interleave_name(Interleave i);
std::optional<Interleave> parse_interleave(const std::string& name);

struct CubeHeader {
  int samples = 0;  ///< width
  int lines = 0;    ///< height
  int bands = 0;
  Interleave interleave = Interleave::kBip;
  std::vector<double> wavelengths;  ///< optional band centres (nm)
};

/// Write `cube` to `<path>` (data) and `<path>.hdr` (header).
bool save_cube(const std::string& path, const ImageCube& cube,
               Interleave interleave = Interleave::kBip,
               const std::vector<double>& wavelengths = {});

/// Parse a header file; nullopt on malformed/missing keys, on a samples,
/// lines, bands or data type value that is not a whole int, and on
/// dimensions whose data size overflows 64 bits. Tolerates Windows-authored
/// files: CRLF (and CR-only) line endings, a UTF-8 BOM, and stray
/// whitespace/tabs around the `=` of each key.
std::optional<CubeHeader> read_header(const std::string& hdr_path);

/// Byte length the data file must have for `header`:
/// samples * lines * bands * sizeof(float), which read_header guarantees
/// fits in 64 bits.
std::uint64_t expected_data_bytes(const CubeHeader& header);

/// True iff the data file at `path` exists and its byte length matches
/// `header` exactly. Truncated AND oversized files are rejected, with a log
/// line naming both sizes. The single validation path shared by the
/// in-memory loader (load_cube) and the out-of-core ChunkedCubeReader.
bool validate_data_size(const std::string& path, const CubeHeader& header);

/// Load `<path>` + `<path>.hdr`; nullopt on I/O or consistency errors.
/// `header_out`, if non-null, receives the parsed header (wavelengths).
std::optional<ImageCube> load_cube(const std::string& path,
                                   CubeHeader* header_out = nullptr);

/// In-memory interleave conversions (exposed for tests and tooling).
std::vector<float> to_interleave(const ImageCube& cube, Interleave target);
ImageCube from_interleave(const std::vector<float>& data, int width,
                          int height, int bands, Interleave source);

}  // namespace rif::hsi
