/**
 * @file
 * BufferedSender: one connection's queue of unsent reply bytes.
 *
 * Replies are queued whole and written as soon as the socket takes
 * them: the owner's poll loop calls flushTo() on every pass and again
 * whenever the socket turns writable, so a reply never waits on a
 * size or time trigger. What the socket does not take stays queued;
 * pendingBytes() is what the owner bounds (it stops reading a peer
 * that lets its replies pile up).
 */

#ifndef STRIX_NET_BUFFERED_H
#define STRIX_NET_BUFFERED_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/socket.h"

namespace strix {

/** Unsent bytes of one connection's queued reply frames. */
class BufferedSender
{
  public:
    /** Queue one encoded frame for sending. */
    void queue(const std::vector<uint8_t> &frame);

    /**
     * Write as much pending data as the socket accepts; the
     * unwritten remainder stays queued. Ok covers both "all flushed"
     * and "short write" (check empty()); WouldBlock means poll for
     * writability; Eof/Error mean the connection is dead.
     */
    TcpConn::IoResult flushTo(TcpConn &conn);

    bool empty() const { return buf_.size() == off_; }
    size_t pendingBytes() const { return buf_.size() - off_; }

  private:
    std::vector<uint8_t> buf_;
    size_t off_ = 0; //!< flushed prefix of buf_
};

} // namespace strix

#endif // STRIX_NET_BUFFERED_H
