/**
 * @file
 * WakePipe implementation.
 */

#include "common/wake_pipe.h"

#include <cerrno>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.h"

namespace strix {

WakePipe::WakePipe()
{
    int fds[2];
    panicIfNot(::pipe2(fds, O_NONBLOCK | O_CLOEXEC) == 0,
               "WakePipe: pipe2 failed");
    read_fd_ = fds[0];
    write_fd_ = fds[1];
}

WakePipe::~WakePipe()
{
    ::close(read_fd_);
    ::close(write_fd_);
}

void
WakePipe::signal()
{
    const char byte = 1;
    // A full pipe (EAGAIN) is readable already; nothing else can fail.
    while (::write(write_fd_, &byte, 1) < 0 && errno == EINTR) {
    }
}

void
WakePipe::drain()
{
    char buf[64];
    while (::read(read_fd_, buf, sizeof buf) > 0) {
    }
}

} // namespace strix
