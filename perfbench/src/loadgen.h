/**
 * @file
 * The load generator: one thread driving up to four MSG1 connections
 * to a loopback StrixServer through net's public TcpConn, Poller,
 * FrameDecoder and encodeMessage.
 *
 * Sends are queued and written non-blocking, so a 16 MB key upload on
 * one connection never stalls the requests on the others. Each
 * request is remembered by id with its send time until its reply
 * arrives; the workload's reply handler times it from there.
 */
#ifndef PERFBENCH_LOADGEN_H
#define PERFBENCH_LOADGEN_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "trace.h"

namespace perfbench {

/** Span name of a request of @p type ("request.ping", ...). */
const char *requestSpanName(strix::MsgType type);

class LoadGen
{
  public:
    /** At most this many connections per generator thread. */
    static constexpr size_t kMaxConns = 4;

    /** A request waiting for its reply. */
    struct InFlight
    {
        strix::MsgType type = strix::MsgType::Ping;
        uint64_t tag = 0;     //!< caller's reference (pool index, ...)
        uint64_t sent_us = 0; //!< when the frame was handed to the socket
        uint32_t span = 0;    //!< request span (traced runs)
    };

    using ReplyFn = std::function<void(size_t conn, const InFlight &req,
                                       strix::WireMessage &reply,
                                       uint64_t now_us)>;

    explicit LoadGen(SpanStore &trace) : trace_(trace) {}

    /** Connect to the loopback port; false on failure or over the cap. */
    bool connect(uint16_t port);

    /**
     * Frame and queue one request on @p conn; returns its request id.
     * @p due_us is when the request could first have been sent (the
     * reply that freed its slot; 0 = now), for lateMs(). The frame's span
     * (traced runs) is a child of @p parent_span.
     */
    uint64_t send(size_t conn, strix::MsgType type, uint64_t tenant,
                  const std::vector<uint8_t> &payload, uint64_t tag,
                  uint64_t due_us = 0, uint32_t parent_span = 0);

    /**
     * One pass of the event loop: write what is queued, wait up to
     * @p wait_us for readiness, read and dispatch every complete reply
     * to @p on_reply. False, with error() set, if a connection died or
     * sent malformed bytes.
     */
    bool pump(uint64_t wait_us, const ReplyFn &on_reply);

    /** Requests sent on @p conn and not yet answered. */
    size_t inflight(size_t conn) const { return conns_[conn].open.size(); }
    size_t inflightTotal() const;

    /** Requests sent so far over all connections. */
    uint64_t sent() const { return sent_; }

    /** Send-side lateness (sent - due) of every request, in ms. */
    const std::vector<double> &lateMs() const { return late_ms_; }
    void clearLate() { late_ms_.clear(); }

    /**
     * Blocking round trip on @p conn (setup and warm-up): send and
     * pump until the reply arrives or @p timeout_us passes. Replies to
     * other requests are dropped, so call it with nothing else open.
     */
    bool call(size_t conn, strix::MsgType type, uint64_t tenant,
              const std::vector<uint8_t> &payload,
              strix::WireMessage &reply, uint64_t timeout_us);

    const std::string &error() const { return error_; }

  private:
    struct Conn
    {
        strix::TcpConn tcp;
        strix::FrameDecoder decoder;
        std::vector<uint8_t> out; //!< queued frame bytes
        size_t out_off = 0;       //!< already written prefix of out
        std::map<uint64_t, InFlight> open;
    };

    bool flush(Conn &c);

    SpanStore &trace_;
    std::vector<Conn> conns_;
    strix::Poller poller_;
    std::vector<uint8_t> rbuf_ = std::vector<uint8_t>(256 * 1024);
    uint64_t next_id_ = 1;
    uint64_t sent_ = 0;
    std::vector<double> late_ms_;
    std::string error_;
};

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_H
