// Scratch directories for tests that write files.
//
// ctest runs every test case as its own process, many at once under
// `ctest -j`. A fixed directory name shared by several cases makes them
// race (one case's remove_all deletes another's live files), so each
// directory is named from the running test's suite and name plus the
// process id, and removed when the process exits.

#pragma once

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "gtest/gtest.h"

namespace pie {

/// A path under testing::TempDir() owned by the running test alone:
/// "<suite>.<test>.<pid>.<name>", with '/' of parameterized names turned
/// into '_'. Anything already at the path is removed; the directory itself
/// is not created. Every such path is removed again at process exit (by
/// the process that named it, never by a forked death-test child).
inline std::string FreshTestDir(const std::string& name) {
  struct ExitCleanup {
    pid_t pid = ::getpid();
    std::vector<std::string> dirs;
    ~ExitCleanup() {
      if (::getpid() != pid) return;
      std::error_code ignored;
      for (const auto& dir : dirs) std::filesystem::remove_all(dir, ignored);
    }
  };
  static ExitCleanup cleanup;
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  std::string owner = info != nullptr ? std::string(info->test_suite_name()) +
                                            "." + info->name()
                                      : std::string("no_test");
  std::replace(owner.begin(), owner.end(), '/', '_');
  const std::string dir = testing::TempDir() + "/" + owner + "." +
                          std::to_string(::getpid()) + "." + name;
  std::filesystem::remove_all(dir);
  cleanup.dirs.push_back(dir);
  return dir;
}

}  // namespace pie
