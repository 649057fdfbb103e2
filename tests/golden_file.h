// Committed golden files (tests/golden/, compiled in as
// WEARLOCK_GOLDEN_DIR). One switch regenerates every golden file the
// gtest suites own, after an intentional model change:
//
//   WEARLOCK_REGEN_GOLDEN=1 ctest --test-dir build -R "matrix|fleet_det"
#pragma once

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace wearlock::testing {

/// Expects `bytes` to equal the golden file `filename`. With
/// WEARLOCK_REGEN_GOLDEN set, writes `bytes` there and skips instead.
inline void ExpectMatchesGolden(const std::string& bytes,
                                const std::string& filename) {
  const std::string path = std::string(WEARLOCK_GOLDEN_DIR) + "/" + filename;
  if (std::getenv("WEARLOCK_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << bytes;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (regen with WEARLOCK_REGEN_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(bytes, golden.str())
      << filename << " drifted from the committed golden; if the change "
      << "is intentional, regen with WEARLOCK_REGEN_GOLDEN=1";
}

}  // namespace wearlock::testing
