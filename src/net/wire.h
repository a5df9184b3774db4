/**
 * @file
 * MSG1: the length-prefixed message framing of the serving protocol.
 *
 * Every message is one frame, built on the common FrameWriter layer
 * (same header shape as the TFHE serialization formats -- a 4-byte
 * tag + u32 version):
 *
 *   +--------+---------+-------+----------+------------+-------------+
 *   | "MSG1" | version | type  | tenant   | request id | deadline us |
 *   |  u32   |  u32    | u32   | u64      | u64        | u64         |
 *   +--------+---------+-------+----------+------------+-------------+
 *   | payload length u64 | payload bytes ...                         |
 *   +-----------------------------------------------------------------+
 *
 * all little-endian, 44 header bytes. The payload of the TFHE request
 * types is itself made of the hardened serialize.h frames (LCT1/TPLY/
 * EVK2), so a hostile payload is rejected by the same validating
 * readers the file formats use; this layer only validates the outer
 * skeleton (magic, version, a per-connection payload-length cap so a
 * length-lying header can never drive allocation).
 *
 * FrameDecoder is the incremental read-side: feed() raw bytes as they
 * arrive, next() yields complete messages; malformed outer framing
 * throws std::runtime_error (the server answers with an error frame
 * and/or closes -- it never crashes on wire bytes).
 */

#ifndef STRIX_NET_WIRE_H
#define STRIX_NET_WIRE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace strix {

/** "MSG1" as a little-endian u32 tag (FrameWriter header). */
inline constexpr uint32_t kMsg1Magic = 0x3147534D;
/** Protocol version this build speaks. */
inline constexpr uint32_t kMsg1Version = 1;
/** Fixed byte length of the MSG1 header (through payload length). */
inline constexpr size_t kMsg1HeaderBytes = 44;

/** Message types. Requests are client->server; Ok/Error the replies. */
enum class MsgType : uint32_t
{
    Ping = 1,           //!< liveness probe; empty payload echoed back
    RegisterTenant = 2, //!< payload: an EVK2 EvalKeys frame
    Bootstrap = 3,      //!< payload: LCT1 ciphertext + TPLY test vector
    ApplyLut = 4,       //!< payload: msg_space + table + LCT1 ciphertext
    EvalCircuit = 5,    //!< payload: gate list + input ciphertexts
    Ok = 0x100,         //!< success reply; payload per request type
    Error = 0x101,      //!< failure reply; payload = code + message
};

/** Structured failure codes carried by Error replies. */
enum class WireError : uint32_t
{
    Protocol = 1,         //!< malformed outer framing
    BadPayload = 2,       //!< payload failed its validating reader
    UnknownType = 3,      //!< request type this server does not speak
    UnknownTenant = 4,    //!< tenant never registered, or evicted
    Busy = 5,             //!< admission control rejected (backpressure)
    DeadlineExceeded = 6, //!< completed past the request deadline
    Infeasible = 7,       //!< circuit has no feasible noise plan
    ShuttingDown = 8,     //!< server is draining
    PayloadTooLarge = 9,  //!< payload length over the per-type cap
    Internal = 10,        //!< unexpected server-side failure
};

/** One decoded MSG1 message. */
struct WireMessage
{
    MsgType type = MsgType::Ping;
    uint64_t tenant = 0;
    uint64_t request_id = 0;
    /**
     * Relative latency budget in microseconds (0 = none): the server
     * measures it from request receipt, so client and server clocks
     * never need to agree.
     */
    uint64_t deadline_us = 0;
    std::vector<uint8_t> payload;
};

/** Encode @p msg as one MSG1 frame. */
std::vector<uint8_t> encodeMessage(const WireMessage &msg);

/** Convenience: encode an Error reply for (@p tenant, @p request). */
std::vector<uint8_t> encodeError(uint64_t tenant, uint64_t request_id,
                                 WireError code,
                                 const std::string &text);

/** Decoded Error-reply payload. */
struct ErrorInfo
{
    WireError code = WireError::Internal;
    std::string text;
};

/** Parse an Error payload; throws std::runtime_error if malformed. */
ErrorInfo decodeErrorPayload(const std::vector<uint8_t> &payload);

/** Human-readable name of @p code (for logs and error text). */
const char *wireErrorName(WireError code);

/** Outer-framing caps enforced by FrameDecoder. */
struct FrameLimits
{
    /**
     * Hard upper bound on any declared payload length. Key bundles
     * are the largest legitimate payload (tens of MiB at the paper
     * sets); the server additionally enforces tighter per-type caps.
     */
    uint64_t max_payload_bytes = 256ull << 20;
};

/**
 * Incremental MSG1 decoder. feed() appends raw bytes; next() yields
 * complete messages in arrival order. A malformed header (bad magic,
 * unsupported version, payload length over the cap) throws
 * std::runtime_error and poisons the decoder -- after a framing error
 * the byte stream has no trustworthy resync point, so the connection
 * must be closed.
 */
class FrameDecoder
{
  public:
    FrameDecoder() = default;
    explicit FrameDecoder(FrameLimits limits) : limits_(limits) {}

    /** Append @p len raw bytes from the socket. */
    void feed(const void *data, size_t len);

    /**
     * Extract the next complete message into @p out. Returns false
     * when more bytes are needed. Throws on malformed framing.
     */
    bool next(WireMessage &out);

    /** Bytes buffered but not yet consumed as messages. */
    size_t buffered() const { return buf_.size() - off_; }

  private:
    uint32_t u32At(size_t at) const;
    uint64_t u64At(size_t at) const;

    FrameLimits limits_;
    std::vector<uint8_t> buf_;
    size_t off_ = 0;      //!< consumed prefix of buf_
    bool poisoned_ = false;
};

} // namespace strix

#endif // STRIX_NET_WIRE_H
