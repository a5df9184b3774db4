/**
 * @file
 * BufferedSender: MTU-coalescing write buffering for response frames.
 *
 * Single LWE ciphertext replies are ~KB while the PBS work behind
 * them is ms-scale, so batching small responses into one syscall-
 * sized write is nearly free throughput (the `COMM_MIN` buffered-
 * network shape from the ROADMAP): responses queue into a pending
 * buffer, and the owner flushes when the buffer reaches the MTU
 * threshold (size trigger) or when the oldest queued byte has waited
 * the flush delay (deadline trigger) -- the same two-trigger policy
 * the BatchExecutor uses for PBS coalescing, applied to egress.
 *
 * The class is deliberately passive about time and IO: the caller
 * supplies `now_us` stamps and drives flushTo() from its poll loop,
 * so the policy is unit-testable with manual clocks and socketpairs
 * and the event loop keeps a single time source.
 */

#ifndef STRIX_NET_BUFFERED_H
#define STRIX_NET_BUFFERED_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/socket.h"

namespace strix {

/** Coalesces queued frames into MTU-sized socket writes. */
class BufferedSender
{
  public:
    struct Options
    {
        /** Size trigger: flush once this many bytes are pending. */
        size_t mtu_bytes = 16 * 1024;
        /**
         * Deadline trigger: maximum microseconds the oldest pending
         * byte may wait before a flush regardless of size. 0 flushes
         * on the owner's next pass.
         */
        uint64_t flush_delay_us = 100;
    };

    BufferedSender() = default;
    explicit BufferedSender(Options opts) : opts_(opts) {}

    /** Queue one encoded frame for sending. */
    void queue(const std::vector<uint8_t> &frame, uint64_t now_us);

    /** True when a trigger fired: pending >= MTU, or oldest aged out. */
    bool wantFlush(uint64_t now_us) const;

    /**
     * Absolute microsecond time when the deadline trigger fires, or 0
     * when nothing is pending (the owner folds this into its poll
     * timeout). Saturates at UINT64_MAX when the oldest byte's time
     * plus flush_delay_us would overflow.
     */
    uint64_t flushDeadline() const;

    /**
     * Write as much pending data as the socket accepts; the
     * unwritten remainder stays queued. Ok covers both "all flushed"
     * and "short write" (check empty()); WouldBlock means poll for
     * writability; Eof/Error mean the connection is dead.
     */
    TcpConn::IoResult flushTo(TcpConn &conn);

    bool empty() const { return buf_.size() == off_; }
    size_t pendingBytes() const { return buf_.size() - off_; }

    /** Frames queued over the sender's lifetime. */
    uint64_t framesQueued() const { return frames_queued_; }
    /** Socket write calls issued (coalescing = frames / writes). */
    uint64_t writeCalls() const { return write_calls_; }

    const Options &options() const { return opts_; }

  private:
    Options opts_;
    std::vector<uint8_t> buf_;
    size_t off_ = 0;           //!< flushed prefix of buf_
    uint64_t oldest_us_ = 0;   //!< queue time of the oldest pending byte
    uint64_t frames_queued_ = 0;
    uint64_t write_calls_ = 0;
};

} // namespace strix

#endif // STRIX_NET_BUFFERED_H
