/**
 * @file
 * StrixClient: blocking byte-level client for the MSG1 protocol.
 *
 * The client lives in net/, below the TFHE layer, so it moves opaque
 * payload bytes: callers (examples/remote_session, tools/serverd
 * self-tests, tests/test_server) build request payloads with the
 * serialize.h writers and decode reply payloads with the validating
 * readers themselves. Two usage shapes:
 *
 *  - call(): fire one request and block for its reply -- the simple
 *    closed-loop path.
 *  - send()/recvReply(): pipelining -- keep several requests in
 *    flight on one connection and match replies by request id (the
 *    server replies in completion order, not submission order; that
 *    is the point of cross-tenant batching).
 *
 * Not thread-safe: one StrixClient per thread, like a socket.
 */

#ifndef STRIX_NET_CLIENT_H
#define STRIX_NET_CLIENT_H

#include <cstdint>
#include <string>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"

namespace strix {

/** Blocking MSG1 client over one TCP connection. */
class StrixClient
{
  public:
    /** Outcome of one request. */
    struct Reply
    {
        bool ok = false;             //!< true on an Ok frame
        uint64_t request_id = 0;     //!< id this reply answers
        WireError error = WireError::Internal; //!< valid when !ok
        std::string error_text;      //!< server-provided detail
        std::vector<uint8_t> payload; //!< Ok payload (request-typed)
    };

    StrixClient() = default;

    /** Connect to 127.0.0.1:@p port (blocking). */
    bool connectLoopback(uint16_t port);
    /** Connect to @p host (dotted quad) : @p port. */
    bool connect(const std::string &host, uint16_t port);
    bool connected() const { return conn_.valid(); }
    void close() { conn_.close(); }

    /**
     * Send one request and block for its reply. Requires no other
     * request in flight on this connection (use send()/recvReply()
     * for pipelining); a reply carrying a different request id is
     * reported as a Protocol error.
     */
    Reply call(MsgType type, uint64_t tenant,
               std::vector<uint8_t> payload, uint64_t deadline_us = 0);

    /** Liveness probe: empty-payload Ping round trip. */
    bool ping();

    /**
     * Fire a request without waiting; returns its request id (0 on a
     * dead connection). Pair with recvReply().
     */
    uint64_t send(MsgType type, uint64_t tenant,
                  std::vector<uint8_t> payload,
                  uint64_t deadline_us = 0);

    /**
     * Block for the next reply frame (any request id). False when the
     * connection died or the server sent malformed bytes; the
     * connection is closed in that case.
     */
    bool recvReply(Reply &out);

  private:
    TcpConn conn_;
    FrameDecoder decoder_;
    uint64_t next_id_ = 1;
};

} // namespace strix

#endif // STRIX_NET_CLIENT_H
