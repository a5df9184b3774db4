/**
 * @file
 * BufferedSender implementation.
 */

#include "net/buffered.h"

#include <limits>

namespace strix {

void
BufferedSender::queue(const std::vector<uint8_t> &frame,
                      uint64_t now_us)
{
    if (empty()) {
        // Compact: everything before off_ is already on the wire.
        buf_.clear();
        off_ = 0;
        oldest_us_ = now_us;
    }
    buf_.insert(buf_.end(), frame.begin(), frame.end());
    ++frames_queued_;
}

bool
BufferedSender::wantFlush(uint64_t now_us) const
{
    if (empty())
        return false;
    if (pendingBytes() >= opts_.mtu_bytes)
        return true;
    return now_us >= flushDeadline();
}

uint64_t
BufferedSender::flushDeadline() const
{
    if (empty())
        return 0;
    const uint64_t deadline = oldest_us_ + opts_.flush_delay_us;
    // Saturate a wrapped sum: a huge delay means "never by time".
    return deadline < oldest_us_ ? std::numeric_limits<uint64_t>::max()
                                 : deadline;
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
        ++write_calls_;
        off_ += put;
    }
    return TcpConn::IoResult::Ok;
}

} // namespace strix
