#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "hsi/chunked_reader.h"
#include "hsi/cube_io.h"
#include "hsi/scene.h"

namespace rif::hsi {
namespace {

namespace fs = std::filesystem;

ImageCube make_cube() {
  ImageCube cube(5, 4, 3);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 5; ++x) {
      for (int b = 0; b < 3; ++b) {
        cube.pixel(x, y)[b] = static_cast<float>(100 * b + 10 * y + x);
      }
    }
  }
  return cube;
}

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

class CubeIoInterleaveTest : public ::testing::TestWithParam<Interleave> {};

TEST_P(CubeIoInterleaveTest, SaveLoadRoundTrip) {
  const ImageCube cube = make_cube();
  const std::string path = temp_path(
      std::string("rif_cube_") + interleave_name(GetParam()) + ".dat");
  ASSERT_TRUE(save_cube(path, cube, GetParam(), {400.0, 1000.0, 2500.0}));

  CubeHeader header;
  const auto loaded = load_cube(path, &header);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->width(), 5);
  EXPECT_EQ(loaded->height(), 4);
  EXPECT_EQ(loaded->bands(), 3);
  EXPECT_EQ(loaded->raw(), cube.raw());  // exact, all interleaves
  EXPECT_EQ(header.interleave, GetParam());
  ASSERT_EQ(header.wavelengths.size(), 3u);
  EXPECT_DOUBLE_EQ(header.wavelengths[1], 1000.0);

  fs::remove(path);
  fs::remove(path + ".hdr");
}

INSTANTIATE_TEST_SUITE_P(Interleaves, CubeIoInterleaveTest,
                         ::testing::Values(Interleave::kBip, Interleave::kBil,
                                           Interleave::kBsq));

TEST(CubeIoTest, InterleaveConversionsInvert) {
  const ImageCube cube = make_cube();
  for (const auto il :
       {Interleave::kBip, Interleave::kBil, Interleave::kBsq}) {
    const auto data = to_interleave(cube, il);
    const ImageCube back = from_interleave(data, 5, 4, 3, il);
    EXPECT_EQ(back.raw(), cube.raw()) << interleave_name(il);
  }
}

TEST(CubeIoTest, BsqLayoutIsPlanar) {
  const ImageCube cube = make_cube();
  const auto bsq = to_interleave(cube, Interleave::kBsq);
  // First plane (band 0) holds band-0 values of all pixels in row order.
  EXPECT_FLOAT_EQ(bsq[0], cube.pixel(0, 0)[0]);
  EXPECT_FLOAT_EQ(bsq[1], cube.pixel(1, 0)[0]);
  EXPECT_FLOAT_EQ(bsq[5 * 4], cube.pixel(0, 0)[1]);  // start of band 1
}

TEST(CubeIoTest, BilLayoutIsLineMajor) {
  const ImageCube cube = make_cube();
  const auto bil = to_interleave(cube, Interleave::kBil);
  // Line 0: band 0 samples, then band 1 samples...
  EXPECT_FLOAT_EQ(bil[0], cube.pixel(0, 0)[0]);
  EXPECT_FLOAT_EQ(bil[5], cube.pixel(0, 0)[1]);
  EXPECT_FLOAT_EQ(bil[3 * 5], cube.pixel(0, 1)[0]);  // line 1 starts
}

TEST(CubeIoTest, ParseInterleaveNames) {
  EXPECT_EQ(parse_interleave("bip"), Interleave::kBip);
  EXPECT_EQ(parse_interleave(" BIL "), Interleave::kBil);
  EXPECT_EQ(parse_interleave("BSQ"), Interleave::kBsq);
  EXPECT_FALSE(parse_interleave("bogus").has_value());
}

TEST(CubeIoTest, MissingHeaderFails) {
  EXPECT_FALSE(load_cube(temp_path("rif_no_such_cube.dat")).has_value());
}

TEST(CubeIoTest, MalformedHeaderFails) {
  const std::string path = temp_path("rif_bad_cube.dat");
  {
    std::ofstream hdr(path + ".hdr");
    hdr << "ENVI\nsamples = 4\nlines = 4\n";  // bands missing
  }
  {
    std::ofstream data(path, std::ios::binary);
    data << "xxxx";
  }
  EXPECT_FALSE(load_cube(path).has_value());
  fs::remove(path);
  fs::remove(path + ".hdr");
}

TEST(CubeIoTest, CrlfHeaderWithStrayWhitespaceParses) {
  // Real-world ENVI headers are often Windows-authored: CRLF line endings,
  // a UTF-8 BOM, tabs and stray spaces around the '='. All of it must
  // parse identically to the clean Unix form.
  const std::string hdr_path = temp_path("rif_crlf.hdr");
  {
    std::ofstream hdr(hdr_path, std::ios::binary);
    hdr << "\xEF\xBB\xBF" << "ENVI\r\n"
        << "samples\t=  5\r\n"
        << "lines =4\r\n"
        << "bands= 3\r\n"
        << "data type = 4\r\n"
        << "interleave =\tBIL\r\n"
        << "wavelength = { 400.0,\r\n"
        << "  1000.0, 2500.0 }\r\n";
  }
  const auto header = read_header(hdr_path);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->samples, 5);
  EXPECT_EQ(header->lines, 4);
  EXPECT_EQ(header->bands, 3);
  EXPECT_EQ(header->interleave, Interleave::kBil);
  ASSERT_EQ(header->wavelengths.size(), 3u);
  EXPECT_DOUBLE_EQ(header->wavelengths[2], 2500.0);
  fs::remove(hdr_path);
}

TEST(CubeIoTest, CrOnlyHeaderParses) {
  // Lone-CR terminators turn the whole file into one std::getline "line";
  // the tolerant reader must still see every key.
  const std::string hdr_path = temp_path("rif_cr.hdr");
  {
    std::ofstream hdr(hdr_path, std::ios::binary);
    hdr << "ENVI\rsamples = 7\rlines = 2\rbands = 4\rdata type = 4\r"
        << "interleave = bsq\r";
  }
  const auto header = read_header(hdr_path);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->samples, 7);
  EXPECT_EQ(header->lines, 2);
  EXPECT_EQ(header->bands, 4);
  EXPECT_EQ(header->interleave, Interleave::kBsq);
  fs::remove(hdr_path);
}

TEST(CubeIoTest, CrlfCubeRoundTrips) {
  // End-to-end: a CRLF-converted header still loads the data file.
  const ImageCube cube = make_cube();
  const std::string path = temp_path("rif_crlf_cube.dat");
  ASSERT_TRUE(save_cube(path, cube));
  {
    std::ifstream in(path + ".hdr");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::string crlf;
    for (const char c : text) {
      if (c == '\n') crlf += '\r';
      crlf += c;
    }
    std::ofstream out(path + ".hdr", std::ios::binary);
    out << crlf;
  }
  const auto loaded = load_cube(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->raw(), cube.raw());
  fs::remove(path);
  fs::remove(path + ".hdr");
}

TEST(CubeIoTest, HeaderWhoseDataSizeWrapsIsRefused) {
  // 2^30 x 2^30 x 16 float32 is 2^66 bytes: a wrapped 64-bit product reads
  // 0, which an EMPTY data file would match. Both loaders must refuse it
  // before any allocation.
  const std::string path = temp_path("rif_wrap_cube.dat");
  {
    std::ofstream hdr(path + ".hdr");
    hdr << "ENVI\nsamples = 1073741824\nlines = 1073741824\nbands = 16\n"
        << "data type = 4\ninterleave = bip\n";
  }
  { std::ofstream data(path, std::ios::binary); }
  EXPECT_FALSE(read_header(path + ".hdr").has_value());
  EXPECT_FALSE(ChunkedCubeReader::open(path).has_value());
  EXPECT_FALSE(load_cube(path).has_value());
  fs::remove(path);
  fs::remove(path + ".hdr");
}

TEST(CubeIoTest, NonIntegerDimensionsAreRefused) {
  const std::string path = temp_path("rif_int_cube.hdr");
  for (const char* samples :
       {"99999999999", "-4", "4x", "4.5", "", "0x10", "2147483648"}) {
    {
      std::ofstream hdr(path);
      hdr << "ENVI\nsamples = " << samples << "\nlines = 4\nbands = 3\n";
    }
    EXPECT_FALSE(read_header(path).has_value()) << samples;
  }
  {
    std::ofstream hdr(path);
    hdr << "ENVI\nsamples = 4\nlines = 4\nbands = 3\ndata type = 4.0\n";
  }
  EXPECT_FALSE(read_header(path).has_value());
  fs::remove(path);
}

TEST(CubeIoTest, OversizedDataFails) {
  // An extra tail means the dims or interleave are wrong; loading it
  // "successfully" would fuse garbage. Same validation path as truncation.
  const ImageCube cube = make_cube();
  const std::string path = temp_path("rif_oversized_cube.dat");
  ASSERT_TRUE(save_cube(path, cube));
  const auto header = read_header(path + ".hdr");
  ASSERT_TRUE(header.has_value());
  EXPECT_TRUE(validate_data_size(path, *header));
  fs::resize_file(path, expected_data_bytes(*header) + sizeof(float));
  EXPECT_FALSE(validate_data_size(path, *header));
  EXPECT_FALSE(load_cube(path).has_value());
  fs::remove(path);
  fs::remove(path + ".hdr");
}

TEST(CubeIoTest, TruncatedDataFails) {
  const ImageCube cube = make_cube();
  const std::string path = temp_path("rif_trunc_cube.dat");
  ASSERT_TRUE(save_cube(path, cube));
  fs::resize_file(path, 10);  // chop the data file
  EXPECT_FALSE(load_cube(path).has_value());
  fs::remove(path);
  fs::remove(path + ".hdr");
}

TEST(CubeIoTest, WavelengthCountMismatchFails) {
  const std::string path = temp_path("rif_wl_cube.dat");
  const ImageCube cube = make_cube();
  ASSERT_TRUE(save_cube(path, cube, Interleave::kBip, {400.0}));  // 1 != 3
  EXPECT_FALSE(load_cube(path).has_value());
  fs::remove(path);
  fs::remove(path + ".hdr");
}

TEST(CubeIoTest, SceneSurvivesDiskRoundTrip) {
  SceneConfig config;
  config.width = 24;
  config.height = 16;
  config.bands = 12;
  const Scene scene = generate_scene(config);
  const std::string path = temp_path("rif_scene_cube.dat");
  ASSERT_TRUE(
      save_cube(path, scene.cube, Interleave::kBsq, scene.wavelengths));
  CubeHeader header;
  const auto loaded = load_cube(path, &header);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->raw(), scene.cube.raw());
  EXPECT_EQ(header.wavelengths, scene.wavelengths);
  fs::remove(path);
  fs::remove(path + ".hdr");
}

}  // namespace
}  // namespace rif::hsi
