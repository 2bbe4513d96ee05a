#ifndef LAAR_TESTS_SCOPED_TEMP_DIR_H_
#define LAAR_TESTS_SCOPED_TEMP_DIR_H_

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace laar {

/// A directory of its own under the temp dir, made with mkdtemp so that
/// concurrent test processes never share it, and removed with its contents
/// when it goes out of scope.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& prefix) {
    std::string path =
        (std::filesystem::temp_directory_path() / (prefix + "_XXXXXX")).string();
    EXPECT_NE(mkdtemp(path.data()), nullptr) << path;
    path_ = path;
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace laar

#endif  // LAAR_TESTS_SCOPED_TEMP_DIR_H_
