#include "io/trace_archive.hpp"

#include <gtest/gtest.h>

#include "io/mmap_archive.hpp"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "mutation.hpp"
#include "temp_path.hpp"

namespace emts::io {
namespace {

// The two EMTA readers: load_trace_archive and the zero-copy mapping the
// replay client streams from. The loader copies out of that mapping, so
// they share one read mechanism and one header check; every load-side case
// below runs against both, so they cannot drift apart.
core::TraceSet load_mapped(const std::string& path) {
  const MappedTraceArchive archive{path};
  core::TraceSet set;
  set.sample_rate = archive.sample_rate();
  for (std::size_t t = 0; t < archive.size(); ++t) set.add(archive.trace_copy(t));
  return set;
}

struct Reader {
  const char* name;
  core::TraceSet (*load)(const std::string& path);
};
constexpr Reader kReaders[] = {{"load_trace_archive", &load_trace_archive},
                               {"MappedTraceArchive", &load_mapped}};

class TraceArchiveTest : public ::testing::Test {
 protected:
  void TearDown() override { std::filesystem::remove(path_); }

  core::TraceSet random_set(std::size_t n, std::size_t len, std::uint64_t seed) {
    Rng rng{seed};
    core::TraceSet set;
    set.sample_rate = 384e6;
    for (std::size_t t = 0; t < n; ++t) {
      core::Trace trace(len);
      for (double& v : trace) v = rng.gaussian();
      set.add(trace);
    }
    return set;
  }

  /// Every reader returns `expected` from `path`, bit for bit.
  static void expect_round_trip(const std::string& path, const core::TraceSet& expected) {
    for (const Reader& reader : kReaders) {
      SCOPED_TRACE(reader.name);
      const core::TraceSet loaded = reader.load(path);
      EXPECT_EQ(loaded.sample_rate, expected.sample_rate);
      ASSERT_EQ(loaded.size(), expected.size());
      ASSERT_EQ(loaded.trace_length(), expected.trace_length());
      for (std::size_t t = 0; t < expected.size(); ++t) {
        EXPECT_EQ(std::memcmp(loaded.traces[t].data(), expected.traces[t].data(),
                              expected.trace_length() * sizeof(double)),
                  0)
            << "trace " << t;
      }
    }
  }

  /// Every reader refuses `path`.
  static void expect_rejected(const std::string& path) {
    for (const Reader& reader : kReaders) {
      SCOPED_TRACE(reader.name);
      EXPECT_THROW(reader.load(path), emts::precondition_error);
    }
  }

  std::string path_ = temp_path("emts_archive_test", ".bin");
};

TEST_F(TraceArchiveTest, RoundTripPreservesEverything) {
  const auto original = random_set(7, 256, 1);
  save_trace_archive(path_, original);
  expect_round_trip(path_, original);
}

TEST_F(TraceArchiveTest, BitExactForExtremeValues) {
  core::TraceSet set;
  set.sample_rate = 1.0;
  set.add(core::Trace{0.0, -0.0, 1e-308, 1e308, -3.141592653589793});
  save_trace_archive(path_, set);
  expect_round_trip(path_, set);
}

TEST_F(TraceArchiveTest, RejectsEmptySet) {
  core::TraceSet empty;
  empty.sample_rate = 1e6;
  EXPECT_THROW(save_trace_archive(path_, empty), emts::precondition_error);
}

TEST_F(TraceArchiveTest, RejectsMissingFile) {
  expect_rejected("/nonexistent/emts.bin");
}

TEST_F(TraceArchiveTest, RejectsBadMagic) {
  std::ofstream out{path_, std::ios::binary};
  out << "NOT-AN-ARCHIVE-AT-ALL-1234567890123456789012345678901234567890";
  out.close();
  expect_rejected(path_);
}

TEST_F(TraceArchiveTest, RejectsTruncatedPayload) {
  const auto original = random_set(4, 128, 2);
  save_trace_archive(path_, original);
  // Chop the file short.
  const auto full_size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full_size - 64);
  expect_rejected(path_);
}

TEST_F(TraceArchiveTest, RejectsTruncatedHeader) {
  std::ofstream out{path_, std::ios::binary};
  out << "EM";
  out.close();
  expect_rejected(path_);
}

// Header layout (32 bytes): magic[4] @0, u32 version @4, u64 trace_count @8,
// u64 trace_length @16, f64 sample_rate @24.
void patch_bytes(const std::string& path, std::streamoff offset, const void* bytes,
                 std::size_t size) {
  std::fstream file{path, std::ios::binary | std::ios::in | std::ios::out};
  ASSERT_TRUE(file.good());
  file.seekp(offset);
  file.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(size));
  ASSERT_TRUE(file.good());
}

TEST_F(TraceArchiveTest, RejectsWrongVersion) {
  save_trace_archive(path_, random_set(3, 64, 3));
  const std::uint32_t bogus_version = 99;
  patch_bytes(path_, 4, &bogus_version, sizeof bogus_version);
  expect_rejected(path_);
}

TEST_F(TraceArchiveTest, RejectsZeroTraceCount) {
  save_trace_archive(path_, random_set(3, 64, 4));
  const std::uint64_t zero = 0;
  patch_bytes(path_, 8, &zero, sizeof zero);
  expect_rejected(path_);
}

TEST_F(TraceArchiveTest, RejectsZeroTraceLength) {
  save_trace_archive(path_, random_set(3, 64, 5));
  const std::uint64_t zero = 0;
  patch_bytes(path_, 16, &zero, sizeof zero);
  expect_rejected(path_);
}

TEST_F(TraceArchiveTest, RejectsNonFiniteSampleRate) {
  save_trace_archive(path_, random_set(3, 64, 6));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  patch_bytes(path_, 24, &nan, sizeof nan);
  expect_rejected(path_);
}

TEST_F(TraceArchiveTest, RejectsTrailingGarbage) {
  save_trace_archive(path_, random_set(3, 64, 7));
  std::ofstream out{path_, std::ios::binary | std::ios::app};
  out << "extra bytes past the declared payload";
  out.close();
  expect_rejected(path_);
}

TEST_F(TraceArchiveTest, RejectsImplausibleTraceCount) {
  save_trace_archive(path_, random_set(3, 64, 8));
  const std::uint64_t huge = 1ull << 40;
  patch_bytes(path_, 8, &huge, sizeof huge);
  expect_rejected(path_);
}

TEST_F(TraceArchiveTest, RejectsImplausibleTraceLength) {
  // A declared length the file cannot hold must be refused from the header
  // alone — before any reserve() sized by attacker-controlled bytes.
  save_trace_archive(path_, random_set(3, 64, 9));
  const std::uint64_t huge = 1ull << 40;
  patch_bytes(path_, 16, &huge, sizeof huge);
  expect_rejected(path_);
}

TEST_F(TraceArchiveTest, RejectsShapeProductThatWrapsU64) {
  // Each factor is individually under the 2^32 plausibility cap, but
  // 2^31 * 2^30 * 8 = 2^64 wraps to exactly 0 in u64 — so an unchecked
  // shape check would accept a 32-byte header-only file and hand out
  // pointers to 2^64 bytes of samples that do not exist.
  save_trace_archive(path_, random_set(1, 1, 10));
  std::filesystem::resize_file(path_, 32);  // header only: payload bytes = 0
  const std::uint64_t count = 1ull << 31;
  const std::uint64_t length = 1ull << 30;
  patch_bytes(path_, 8, &count, sizeof count);
  patch_bytes(path_, 16, &length, sizeof length);
  expect_rejected(path_);
}

TEST_F(TraceArchiveTest, RejectsShapeTimesEightThatWrapsU64) {
  // The count*length product fits u64; only the *8 byte conversion wraps
  // (2^31 * 2^30 = 2^61, times 8 = 2^64 ≡ 0). Both multiplications must be
  // checked, not just the first.
  save_trace_archive(path_, random_set(1, 1, 11));
  std::filesystem::resize_file(path_, 32);
  const std::uint64_t count = (1ull << 31) - 1;
  const std::uint64_t length = (1ull << 32) - 1;
  patch_bytes(path_, 8, &count, sizeof count);
  patch_bytes(path_, 16, &length, sizeof length);
  expect_rejected(path_);
}

// ---------- seeded structural mutation ----------

// Half the splices aim at the trace count (offset 8) and trace length
// (offset 16), which size every allocation a load makes.
TEST_F(TraceArchiveTest, SeededMutantsLoadOrThrowPreconditionError) {
  save_trace_archive(path_, random_set(4, 16, 12));
  std::ifstream file{path_, std::ios::binary};
  const std::string clean{std::istreambuf_iterator<char>{file}, {}};
  file.close();
  const std::vector<mutation::Field> fields{{8, 8}, {16, 8}};
  constexpr int kMutants = 1000;
  emts::Rng rng{0x454d5441};  // 'EMTA'
  int refused = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::string mutant = clean;
    mutation::mutate(mutant, fields, rng);
    std::ofstream{path_, std::ios::binary | std::ios::trunc}.write(
        mutant.data(), static_cast<std::streamsize>(mutant.size()));
    bool refused_by[std::size(kReaders)] = {};
    for (std::size_t r = 0; r < std::size(kReaders); ++r) {
      refused_by[r] = mutation::decode_or_refuse(m, mutant.size(), [&] {
                        kReaders[r].load(path_);
                      }).has_value();
    }
    // One read mechanism, one header check: the readers agree on every mutant.
    EXPECT_EQ(refused_by[0], refused_by[1]) << "mutant " << m;
    refused += refused_by[0] ? 1 : 0;
  }
  // Aimed splices must mostly reach, and trip, the shape checks.
  EXPECT_GT(refused, kMutants / 2);
}

}  // namespace
}  // namespace emts::io
