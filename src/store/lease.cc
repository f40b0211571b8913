#include "store/lease.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "fault/error.h"

namespace bds {

namespace {

/** Lock `path` with flock `op`; nullptr when LOCK_NB finds it held. */
std::unique_ptr<Lease>
lockLease(const std::string &path, int op)
{
    for (;;) {
        const int fd =
            ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0666);
        if (fd < 0) {
            const int err = errno;
            BDS_RAISE(ErrorCode::Io, "cannot open lease '"
                                         << path << "': "
                                         << std::strerror(err));
        }
        int err;
        do
            err = ::flock(fd, op) == 0 ? 0 : errno;
        while (err == EINTR);
        if (err != 0) {
            ::close(fd);
            if (err == EWOULDBLOCK)
                return nullptr;
            BDS_RAISE(ErrorCode::Io, "cannot lock lease '"
                                         << path << "': "
                                         << std::strerror(err));
        }
        // The holder we waited for unlinked this file before we got
        // the lock, so it guards nothing: start over on the path.
        struct stat held, named;
        if (::fstat(fd, &held) == 0 && ::stat(path.c_str(), &named) == 0
            && held.st_dev == named.st_dev && held.st_ino == named.st_ino)
            return std::make_unique<Lease>(path, fd);
        ::close(fd);
    }
}

} // namespace

Lease::~Lease()
{
    // Unlink while still locked: unlinking after the unlock could
    // pull the file out from under a waiter that had just locked it
    // and passed the inode check.
    ::unlink(path_.c_str());
    ::close(fd_);
}

std::unique_ptr<Lease>
tryAcquireLease(const std::string &path)
{
    return lockLease(path, LOCK_EX | LOCK_NB);
}

std::unique_ptr<Lease>
acquireLease(const std::string &path)
{
    return lockLease(path, LOCK_EX);
}

} // namespace bds
