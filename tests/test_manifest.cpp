#include "fleet/manifest.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "mutation.hpp"
#include "temp_path.hpp"

namespace emts::fleet {
namespace {

class ManifestTest : public ::testing::Test {
 protected:
  void write(const std::string& text) {
    std::ofstream out(path_);
    out << text;
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_ = temp_path("emts_manifest_test", ".manifest");
};

TEST_F(ManifestTest, ParsesDevicesCommentsAndBlankLines) {
  write("# fleet of two\n"
        "\n"
        "dev-a a.emta\n"
        "dev-b b.emta model_b.emca\n");
  const auto entries = parse_manifest(path_);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].device_id, "dev-a");
  EXPECT_EQ(entries[0].archive_path, "a.emta");
  EXPECT_TRUE(entries[0].model_path.empty());
  EXPECT_EQ(entries[0].line_no, 3u);
  EXPECT_EQ(entries[1].device_id, "dev-b");
  EXPECT_EQ(entries[1].model_path, "model_b.emca");
  EXPECT_EQ(entries[1].line_no, 4u);
}

TEST_F(ManifestTest, RejectsDuplicateDeviceIdNamingBothLines) {
  // Before the duplicate check, the second `dev-a` silently won inside
  // FleetMonitor::add_device's map — the first registration shadowed with no
  // diagnostic. The parser now refuses at parse time.
  write("dev-a a.emta\n"
        "dev-b b.emta\n"
        "dev-a other.emta\n");
  try {
    parse_manifest(path_);
    FAIL() << "duplicate device_id accepted";
  } catch (const precondition_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find(":3"), std::string::npos) << message;
    EXPECT_NE(message.find("dev-a"), std::string::npos) << message;
    EXPECT_NE(message.find("line 1"), std::string::npos) << message;
  }
}

TEST_F(ManifestTest, RejectsMissingArchiveColumn) {
  write("dev-a\n");
  EXPECT_THROW(parse_manifest(path_), precondition_error);
}

TEST_F(ManifestTest, RejectsTrailingFields) {
  write("dev-a a.emta model.emca surplus\n");
  EXPECT_THROW(parse_manifest(path_), precondition_error);
}

TEST_F(ManifestTest, RejectsEmptyManifest) {
  write("# only comments\n\n");
  EXPECT_THROW(parse_manifest(path_), precondition_error);
}

TEST_F(ManifestTest, RejectsUnreadableFile) {
  EXPECT_THROW(parse_manifest(path_ + ".does-not-exist"), precondition_error);
}

// Splices aim at the start of each line, where a device id begins.
TEST_F(ManifestTest, SeededMutantsParseOrThrowPreconditionError) {
  const std::string clean = "# two chips\nchip-a a.emta\nchip-b b.emta model_b.emca\n";
  const std::vector<mutation::Field> fields{{0, 4}, {12, 4}, {26, 4}};
  constexpr int kMutants = 1000;
  emts::Rng rng{0x4d414e49};  // 'MANI'
  int refused = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::string mutant = clean;
    mutation::mutate(mutant, fields, rng);
    write(mutant);
    const auto refusal = mutation::decode_or_refuse(m, mutant.size(), [&] {
      for (const ManifestEntry& entry : parse_manifest(path_)) {
        EXPECT_FALSE(entry.device_id.empty());
        EXPECT_FALSE(entry.archive_path.empty());
      }
    });
    refused += refusal ? 1 : 0;
  }
  // Most edits to free text still parse; the aimed splices and truncations
  // that split or empty a line must trip the line checks.
  EXPECT_GT(refused, kMutants / 10);
}

}  // namespace
}  // namespace emts::fleet
