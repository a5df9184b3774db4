/**
 * @file
 * WakePipe: a self-pipe that wakes a poll(2) loop from another thread.
 *
 * Work that completes on a worker thread has no file descriptor of
 * its own, so a loop that polls sockets would have to poll for it on
 * a timer. Instead the worker signals the pipe after publishing its
 * result, and the loop watches the read end beside its sockets. Both
 * ends are non-blocking. Every signal writes one byte, so a signal
 * can never be lost between a drain's reads; at one write per
 * completed PBS (milliseconds of work each) that costs nothing.
 */

#ifndef STRIX_COMMON_WAKE_PIPE_H
#define STRIX_COMMON_WAKE_PIPE_H

namespace strix {

/** A non-blocking self-pipe; safe to signal from any thread. */
class WakePipe
{
  public:
    /** Open the pipe; panics if the process is out of descriptors. */
    WakePipe();
    ~WakePipe();

    WakePipe(const WakePipe &) = delete;
    WakePipe &operator=(const WakePipe &) = delete;

    /** The read end: readable while a signal is pending. */
    int fd() const { return read_fd_; }

    /**
     * Make fd() readable. The pipe only wakes: publish the result
     * itself through something that synchronizes (a future).
     */
    void signal();

    /**
     * Consume every pending signal. A loop drains before it checks for
     * completed work, so a signal raised after the check stays pending
     * and wakes its next poll.
     */
    void drain();

  private:
    int read_fd_ = -1;
    int write_fd_ = -1;
};

} // namespace strix

#endif // STRIX_COMMON_WAKE_PIPE_H
