/**
 * @file
 * BufferedSender implementation.
 */

#include "net/buffered.h"

#include <cstddef>

namespace strix {

void
BufferedSender::queue(const std::vector<uint8_t> &frame)
{
    // Drop the flushed prefix once it is at least as long as what is
    // still unsent. A peer that reads steadily but never catches up
    // then keeps the buffer under twice its unsent bytes plus one
    // frame, and each byte is moved at most once per byte flushed.
    if (off_ >= pendingBytes()) {
        buf_.erase(buf_.begin(), buf_.begin() + std::ptrdiff_t(off_));
        off_ = 0;
    }
    buf_.insert(buf_.end(), frame.begin(), frame.end());
}

TcpConn::IoResult
BufferedSender::flushTo(TcpConn &conn)
{
    while (!empty()) {
        size_t put = 0;
        const TcpConn::IoResult r =
            conn.writeSome(buf_.data() + off_, pendingBytes(), put);
        if (r != TcpConn::IoResult::Ok)
            return r;
        off_ += put;
    }
    return TcpConn::IoResult::Ok;
}

} // namespace strix
