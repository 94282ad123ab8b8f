/**
 * @file
 * Scratch directories for tests that write files.
 *
 * ctest runs every gtest case as its own process and, under `ctest
 * -j`, runs them side by side -- together with the aggregate entries
 * (tests/CMakeLists.txt) that run slices of the same binaries. A fixed
 * path under ::testing::TempDir() is therefore shared by concurrent
 * processes that delete each other's files. tempDir() makes a fresh
 * mkdtemp directory on every call instead; the directories a process
 * made are removed when it exits.
 */

#ifndef GLIFS_TESTS_TEST_TMPDIR_HH
#define GLIFS_TESTS_TEST_TMPDIR_HH

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

namespace glifs::testutil
{

/** Removes the directories registered with it when the process that
 *  made them exits normally (a forked child leaves them alone). */
class TempDirs
{
  public:
    static TempDirs &
    instance()
    {
        static TempDirs dirs;
        return dirs;
    }

    void add(const std::string &dir) { made.push_back(dir); }

    ~TempDirs()
    {
        if (::getpid() != owner)
            return;
        std::error_code ec;
        for (const std::string &d : made)
            std::filesystem::remove_all(d, ec);
    }

  private:
    pid_t owner = ::getpid();
    std::vector<std::string> made;
};

/** A new, empty directory `<TempDir()><name>_XXXXXX` owned by this
 *  process. */
inline std::string
tempDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + name + "_XXXXXX";
    if (!::mkdtemp(dir.data())) {
        ADD_FAILURE() << "mkdtemp failed for " << dir;
        return dir;
    }
    TempDirs::instance().add(dir);
    return dir;
}

} // namespace glifs::testutil

#endif // GLIFS_TESTS_TEST_TMPDIR_HH
