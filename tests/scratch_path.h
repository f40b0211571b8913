/**
 * @file
 * Per-process names for the files and directories tests make under
 * ::testing::TempDir().
 *
 * TempDir() is one directory for every test process on the host, so a
 * fixed name lets two concurrent test runs (say a Release and a
 * ThreadSanitizer build) wipe each other's store. scratchPath()
 * prefixes the name with the process id; cases in one process still
 * share a name, as a fixture that seeds a cache for later cases needs.
 */

#ifndef BDS_TESTS_SCRATCH_PATH_H
#define BDS_TESTS_SCRATCH_PATH_H

#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

namespace bdstest {

/** `name` under TempDir(), made unique to this process. */
inline std::string
scratchPath(const std::string &name)
{
    return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

} // namespace bdstest

#endif // BDS_TESTS_SCRATCH_PATH_H
