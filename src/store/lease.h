/**
 * @file
 * Cross-process single-flight leases for the shared on-disk stores.
 *
 * A lease is an exclusive flock(2) on `<entry>.lease`, a file that
 * holds no bytes. The kernel keeps the lock for as long as the
 * holder's descriptor is open, so a holder that exits or crashes
 * frees it without anyone probing a pid, and a waiter blocked in
 * flock() wakes the moment it is released.
 *
 * Release unlinks the path while still holding the lock. An acquirer
 * whose lock landed on such an unlinked inode sees that the path no
 * longer names its file (fstat vs stat) and retries; without that
 * check two processes could hold the lease at once, one on the
 * unlinked file and one on its replacement (docs/STORAGE.md §1).
 *
 * Filesystem failures are typed Error(Io); SharedStore turns them
 * into store-down mode (compute without coordination).
 */

#ifndef BDS_STORE_LEASE_H
#define BDS_STORE_LEASE_H

#include <memory>
#include <string>

namespace bds {

/** A held lease; destruction unlinks the lease file, then unlocks. */
class Lease
{
  public:
    Lease(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}
    ~Lease();

    Lease(const Lease &) = delete;
    Lease &operator=(const Lease &) = delete;

  private:
    std::string path_;
    int fd_;
};

/**
 * Take the lease at `path` if it is free. Returns nullptr when
 * another holder has it; any other failure is Error(Io).
 */
std::unique_ptr<Lease> tryAcquireLease(const std::string &path);

/** Take the lease at `path`, blocking until its holder releases it. */
std::unique_ptr<Lease> acquireLease(const std::string &path);

} // namespace bds

#endif // BDS_STORE_LEASE_H
