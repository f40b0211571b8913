/**
 * @file
 * Lease tests: exclusive acquisition between descriptors of one
 * process, a dead holder's lock freed by the kernel, foreign bytes at
 * the lock path, and a multi-thread stress case that catches two
 * holders at once (the race the inode recheck in lockLease closes).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "store/lease.h"
#include "store/shared.h"
#include "scratch_path.h"

namespace bds {
namespace {

std::string
leasePath(const std::string &name)
{
    const std::string path = bdstest::scratchPath(name + ".lease");
    std::remove(path.c_str());
    return path;
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/**
 * Fork a child that runs `take` (which must take and keep a lease),
 * reports it, then waits for the parent to close `*release` and
 * `_exit`s without releasing anything. Returns the child's pid once
 * it holds the lease.
 */
pid_t
holdInChild(const std::function<bool()> &take, int *release)
{
    int ready[2], hold[2];
    if (::pipe(ready) != 0 || ::pipe(hold) != 0)
        return -1;
    const pid_t child = ::fork();
    if (child == 0) {
        ::close(hold[1]);
        const char ok = take() ? '1' : '0';
        (void)!::write(ready[1], &ok, 1);
        char c;
        (void)!::read(hold[0], &c, 1); // EOF: the parent let go
        ::_exit(0);
    }
    ::close(ready[1]);
    ::close(hold[0]);
    char ok = '0';
    const bool held = ::read(ready[0], &ok, 1) == 1 && ok == '1';
    ::close(ready[0]);
    *release = hold[1];
    return held ? child : -1;
}

/** Let the child exit and reap it; true when it exited cleanly. */
bool
reap(pid_t child)
{
    int status = 0;
    return ::waitpid(child, &status, 0) == child && WIFEXITED(status)
        && WEXITSTATUS(status) == 0;
}

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

TEST(StoreLease, AcquireIsExclusiveAndReleaseFreesTheFile)
{
    const std::string path = leasePath("bds_lease_excl");

    std::unique_ptr<Lease> held = tryAcquireLease(path);
    ASSERT_TRUE(held);
    EXPECT_TRUE(fileExists(path));

    // flock excludes per open file, so a second descriptor in the
    // same process finds the lease busy: not an error, just null.
    EXPECT_FALSE(tryAcquireLease(path));

    held.reset();
    EXPECT_FALSE(fileExists(path));

    // Released means re-acquirable.
    std::unique_ptr<Lease> again = tryAcquireLease(path);
    EXPECT_TRUE(again);
    again.reset();
    EXPECT_FALSE(fileExists(path));
}

TEST(StoreLease, DeadHolderIsTakenOverImmediately)
{
    const std::string path = leasePath("bds_lease_dead");

    // A holder that dies without releasing (the child leaks its
    // Lease): the kernel drops the lock when the process exits, so a
    // blocked waiter wakes at once.
    int release = -1;
    const pid_t child = holdInChild(
        [&] { return tryAcquireLease(path).release() != nullptr; },
        &release);
    ASSERT_GT(child, 0);
    EXPECT_FALSE(tryAcquireLease(path)); // the child really holds it

    const auto t0 = std::chrono::steady_clock::now();
    ::close(release);
    std::unique_ptr<Lease> lease = acquireLease(path);
    EXPECT_TRUE(lease);
    EXPECT_LT(msSince(t0), 1000.0);
    EXPECT_TRUE(reap(child));
}

TEST(StoreLease, DeadLeaderWithoutAnEntryMakesTheWaiterLeader)
{
    const std::string dir = bdstest::scratchPath("bds_lease_dead_store");
    std::system(("rm -rf '" + dir + "'").c_str());
    SharedStoreOptions opts;
    opts.dir = dir;
    opts.suffix = ".ent";

    // The child leads "cell.ent", then dies without publishing: the
    // parent's wait must end as the new leader, since no entry exists.
    int release = -1;
    const pid_t child = holdInChild(
        [&] {
            SharedStore mine(opts);
            return mine.singleFlight("cell.ent").lease.release()
                != nullptr;
        },
        &release);
    ASSERT_GT(child, 0);
    EXPECT_FALSE(tryAcquireLease(dir + "/cell.ent.lease"));

    SharedStore store(opts);
    const auto t0 = std::chrono::steady_clock::now();
    ::close(release);
    FlightTicket ticket = store.singleFlight("cell.ent");
    EXPECT_TRUE(ticket.lease);
    EXPECT_FALSE(ticket.entryAppeared);
    EXPECT_LT(msSince(t0), 1000.0);
    EXPECT_TRUE(reap(child));

    ticket.lease.reset();
    std::system(("rm -rf '" + dir + "'").c_str());
}

TEST(StoreLease, ForeignBytesAtTheLockPathDoNotBlockAcquisition)
{
    const std::string path = leasePath("bds_lease_foreign");
    {
        // A pid-stamped body or any other bytes: the lock is on the
        // file, and its contents mean nothing.
        std::ofstream f(path, std::ios::trunc);
        f << "BDSLEASE 1\npid 1\nbeat 7\n";
    }
    std::unique_ptr<Lease> lease = tryAcquireLease(path);
    ASSERT_TRUE(lease);
    lease.reset();
    EXPECT_FALSE(fileExists(path));
}

TEST(StoreLease, ConcurrentAcquirersNeverOverlap)
{
    // Every release unlinks the file, so acquirers keep racing a
    // waiter's stale open against a fresh create. Two holders at
    // once is what the inode recheck prevents.
    const std::string shared = leasePath("bds_lease_stress");
    constexpr int kThreads = 4;
    constexpr int kRounds = 2000;
    std::atomic<int> inside{0};
    std::atomic<int> overlaps{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&, path = std::string(shared)] {
            for (int i = 0; i < kRounds; ++i) {
                std::unique_ptr<Lease> lease = acquireLease(path);
                if (inside.fetch_add(1) != 0)
                    ++overlaps;
                std::this_thread::yield();
                inside.fetch_sub(1);
            }
        });
    for (std::thread &t : pool)
        t.join();
    EXPECT_EQ(overlaps.load(), 0);
    EXPECT_FALSE(fileExists(shared));
}

} // namespace
} // namespace bds
