#include "hsi/cube_io.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "support/check.h"
#include "support/log.h"

namespace rif::hsi {

namespace {

std::string trim(const std::string& s) {
  std::size_t a = 0;
  std::size_t b = s.size();
  while (a < b && std::isspace(static_cast<unsigned char>(s[a]))) ++a;
  while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1]))) --b;
  return s.substr(a, b - a);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// getline accepting LF, CRLF and lone-CR terminators. Real-world ENVI
/// headers are often Windows-authored; a CR-only file would otherwise come
/// back from std::getline as ONE line and lose every key after the first.
bool getline_any(std::istream& in, std::string& line) {
  line.clear();
  int c;
  while ((c = in.get()) != EOF) {
    if (c == '\n') return true;
    if (c == '\r') {
      if (in.peek() == '\n') in.get();
      return true;
    }
    line.push_back(static_cast<char>(c));
  }
  return !line.empty();
}

/// The whole of `value` as a decimal int; nullopt on anything else,
/// out-of-range values included (where std::atoi is undefined).
std::optional<int> parse_int(const std::string& value) {
  int out = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return out;
}

}  // namespace

const char* interleave_name(Interleave i) {
  switch (i) {
    case Interleave::kBip: return "bip";
    case Interleave::kBil: return "bil";
    case Interleave::kBsq: return "bsq";
  }
  return "bip";
}

std::optional<Interleave> parse_interleave(const std::string& name) {
  const std::string n = lower(trim(name));
  if (n == "bip") return Interleave::kBip;
  if (n == "bil") return Interleave::kBil;
  if (n == "bsq") return Interleave::kBsq;
  return std::nullopt;
}

std::vector<float> to_interleave(const ImageCube& cube, Interleave target) {
  const int W = cube.width();
  const int H = cube.height();
  const int B = cube.bands();
  if (target == Interleave::kBip) return cube.raw();

  std::vector<float> out(cube.raw().size());
  if (target == Interleave::kBil) {
    // Per line: all samples of band 0, then band 1, ...
    for (int y = 0; y < H; ++y) {
      for (int b = 0; b < B; ++b) {
        for (int x = 0; x < W; ++x) {
          out[(static_cast<std::size_t>(y) * B + b) * W + x] =
              cube.pixel(x, y)[b];
        }
      }
    }
  } else {  // BSQ: whole plane per band
    for (int b = 0; b < B; ++b) {
      for (int y = 0; y < H; ++y) {
        for (int x = 0; x < W; ++x) {
          out[(static_cast<std::size_t>(b) * H + y) * W + x] =
              cube.pixel(x, y)[b];
        }
      }
    }
  }
  return out;
}

ImageCube from_interleave(const std::vector<float>& data, int width,
                          int height, int bands, Interleave source) {
  RIF_CHECK(data.size() ==
            static_cast<std::size_t>(width) * height * bands);
  ImageCube cube(width, height, bands);
  if (source == Interleave::kBip) {
    cube.raw() = data;
    return cube;
  }
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      auto px = cube.pixel(x, y);
      for (int b = 0; b < bands; ++b) {
        if (source == Interleave::kBil) {
          px[b] = data[(static_cast<std::size_t>(y) * bands + b) * width + x];
        } else {  // BSQ
          px[b] = data[(static_cast<std::size_t>(b) * height + y) * width + x];
        }
      }
    }
  }
  return cube;
}

bool save_cube(const std::string& path, const ImageCube& cube,
               Interleave interleave,
               const std::vector<double>& wavelengths) {
  // Header.
  std::ofstream hdr(path + ".hdr");
  if (!hdr) return false;
  hdr.precision(17);
  hdr << "ENVI\n";
  hdr << "description = { rif hyper-spectral cube }\n";
  hdr << "samples = " << cube.width() << "\n";
  hdr << "lines = " << cube.height() << "\n";
  hdr << "bands = " << cube.bands() << "\n";
  hdr << "header offset = 0\n";
  hdr << "data type = 4\n";  // IEEE float32
  hdr << "interleave = " << interleave_name(interleave) << "\n";
  hdr << "byte order = 0\n";
  if (!wavelengths.empty()) {
    hdr << "wavelength = {";
    for (std::size_t i = 0; i < wavelengths.size(); ++i) {
      hdr << (i ? ", " : " ") << wavelengths[i];
    }
    hdr << " }\n";
  }
  hdr.close();
  if (!hdr) return false;

  // Data.
  const std::vector<float> data = to_interleave(cube, interleave);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(data.data(), sizeof(float), data.size(), f) == data.size();
  std::fclose(f);
  return ok;
}

std::optional<CubeHeader> read_header(const std::string& hdr_path) {
  std::ifstream in(hdr_path);
  if (!in) return std::nullopt;

  CubeHeader header;  // a missing dimension stays 0 and is refused
  std::string line;
  bool first_line = true;
  while (getline_any(in, line)) {
    if (first_line) {
      // Strip a UTF-8 BOM some Windows editors prepend.
      if (line.rfind("\xEF\xBB\xBF", 0) == 0) line.erase(0, 3);
      first_line = false;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = lower(trim(line.substr(0, eq)));
    std::string value = trim(line.substr(eq + 1));

    int* const dim = key == "samples" ? &header.samples
                     : key == "lines" ? &header.lines
                     : key == "bands" ? &header.bands
                                      : nullptr;
    if (dim != nullptr) {
      const std::optional<int> n = parse_int(value);
      if (!n) return std::nullopt;
      *dim = *n;
    } else if (key == "interleave") {
      const auto il = parse_interleave(value);
      if (!il) return std::nullopt;
      header.interleave = *il;
    } else if (key == "data type") {
      if (parse_int(value) != 4) return std::nullopt;  // float32 only
    } else if (key == "wavelength") {
      // Multi-line { a, b, ... } list.
      std::string list = value;
      while (list.find('}') == std::string::npos && getline_any(in, line)) {
        list += ' ';
        list += line;
      }
      std::string nums;
      for (const char c : list) {
        nums += (c == '{' || c == '}' || c == ',') ? ' ' : c;
      }
      std::istringstream ss(nums);
      double wl;
      while (ss >> wl) header.wavelengths.push_back(wl);
    }
  }
  if (header.samples <= 0 || header.lines <= 0 || header.bands <= 0) {
    return std::nullopt;
  }
  if (!header.wavelengths.empty() &&
      static_cast<int>(header.wavelengths.size()) != header.bands) {
    return std::nullopt;
  }
  // The data size must be representable: a wrapped product would let a
  // short (even empty) data file pass validate_data_size.
  std::uint64_t bytes = sizeof(float);
  for (const int n : {header.samples, header.lines, header.bands}) {
    if (__builtin_mul_overflow(bytes, static_cast<std::uint64_t>(n), &bytes)) {
      return std::nullopt;
    }
  }
  return header;
}

std::uint64_t expected_data_bytes(const CubeHeader& header) {
  return static_cast<std::uint64_t>(header.samples) * header.lines *
         header.bands * sizeof(float);
}

bool validate_data_size(const std::string& path, const CubeHeader& header) {
  std::error_code ec;
  const std::uintmax_t actual = std::filesystem::file_size(path, ec);
  if (ec) {
    RIF_LOG_WARN("cube_io", "cannot stat data file " << path << ": "
                                                     << ec.message());
    return false;
  }
  const std::uint64_t expected = expected_data_bytes(header);
  if (actual != expected) {
    RIF_LOG_WARN("cube_io",
                 "data file " << path << " is " << actual << " bytes but "
                              << header.samples << "x" << header.lines << "x"
                              << header.bands << " float32 needs " << expected
                              << " (" << (actual < expected ? "truncated"
                                                            : "oversized")
                              << " file?)");
    return false;
  }
  return true;
}

std::optional<ImageCube> load_cube(const std::string& path,
                                   CubeHeader* header_out) {
  const auto header = read_header(path + ".hdr");
  if (!header) {
    RIF_LOG_WARN("cube_io", "bad or missing header for " << path);
    return std::nullopt;
  }
  if (!validate_data_size(path, *header)) return std::nullopt;
  const std::size_t count = static_cast<std::size_t>(header->samples) *
                            header->lines * header->bands;
  std::vector<float> data(count);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  const bool ok = std::fread(data.data(), sizeof(float), count, f) == count;
  std::fclose(f);
  if (!ok) {
    RIF_LOG_WARN("cube_io", "short read on " << path);
    return std::nullopt;
  }
  if (header_out != nullptr) *header_out = *header;
  return from_interleave(data, header->samples, header->lines, header->bands,
                         header->interleave);
}

}  // namespace rif::hsi
