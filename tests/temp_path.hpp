// Per-test scratch file paths. gtest_discover_tests registers every TEST as
// its own ctest entry, so `ctest -j` runs the tests of one suite in parallel
// processes; a fixed file name under the temp directory lets them overwrite
// and delete each other's files mid-test. A name carrying the process id and
// the running test's suite and name is never shared by two live tests.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace emts {

/// <temp dir>/<stem>-<pid>-<Suite>.<Test><extension>. Call it while a test
/// runs: in its body, SetUp(), or a fixture member initializer.
inline std::string temp_path(const std::string& stem, const std::string& extension) {
  std::string name = stem + "-" + std::to_string(::getpid());
  if (const ::testing::TestInfo* test = ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += std::string{"-"} + test->test_suite_name() + "." + test->name();
  }
  return (std::filesystem::temp_directory_path() / (name + extension)).string();
}

}  // namespace emts
