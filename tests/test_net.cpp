/**
 * @file
 * net/ layer unit tests: MSG1 framing (incremental decode, hostile
 * headers), and the TCP primitives and the BufferedSender over real
 * loopback sockets.
 */

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/buffered.h"
#include "net/client.h"
#include "net/socket.h"
#include "net/wire.h"

using namespace strix;

namespace {

std::vector<uint8_t>
payloadOf(const std::string &s)
{
    return std::vector<uint8_t>(s.begin(), s.end());
}

WireMessage
sampleMessage()
{
    WireMessage m;
    m.type = MsgType::ApplyLut;
    m.tenant = 42;
    m.request_id = 1234567;
    m.deadline_us = 5000;
    m.payload = payloadOf("hello payload");
    return m;
}

// --- MSG1 framing ----------------------------------------------------

TEST(Msg1, EncodeDecodeRoundTrip)
{
    const WireMessage m = sampleMessage();
    const std::vector<uint8_t> frame = encodeMessage(m);
    ASSERT_EQ(frame.size(), kMsg1HeaderBytes + m.payload.size());

    FrameDecoder dec;
    dec.feed(frame.data(), frame.size());
    WireMessage out;
    ASSERT_TRUE(dec.next(out));
    EXPECT_EQ(out.type, m.type);
    EXPECT_EQ(out.tenant, m.tenant);
    EXPECT_EQ(out.request_id, m.request_id);
    EXPECT_EQ(out.deadline_us, m.deadline_us);
    EXPECT_EQ(out.payload, m.payload);
    EXPECT_FALSE(dec.next(out));
    EXPECT_EQ(dec.buffered(), 0u);
}

TEST(Msg1, EncodedFrameBytesArePinned)
{
    // The 44-byte little-endian header, then the payload verbatim.
    WireMessage m;
    m.type = static_cast<MsgType>(0x05040302);
    m.tenant = 0x1112131415161718ull;
    m.request_id = 0x2122232425262728ull;
    m.deadline_us = 0x3132333435363738ull;
    m.payload = {0xAA, 0xBB, 0xCC};
    const std::vector<uint8_t> want = {
        0x4D, 0x53, 0x47, 0x31,                         // "MSG1"
        0x01, 0x00, 0x00, 0x00,                         // version 1
        0x02, 0x03, 0x04, 0x05,                         // type
        0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11, // tenant
        0x28, 0x27, 0x26, 0x25, 0x24, 0x23, 0x22, 0x21, // request id
        0x38, 0x37, 0x36, 0x35, 0x34, 0x33, 0x32, 0x31, // deadline
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // payload bytes
        0xAA, 0xBB, 0xCC};
    EXPECT_EQ(encodeMessage(m), want);
    EXPECT_EQ(want.size(), kMsg1HeaderBytes + 3);
}

TEST(Msg1, OneByteDripDecode)
{
    const WireMessage m = sampleMessage();
    const std::vector<uint8_t> frame = encodeMessage(m);

    FrameDecoder dec;
    WireMessage out;
    for (size_t i = 0; i + 1 < frame.size(); ++i) {
        dec.feed(&frame[i], 1);
        ASSERT_FALSE(dec.next(out)) << "complete at byte " << i;
    }
    dec.feed(&frame[frame.size() - 1], 1);
    ASSERT_TRUE(dec.next(out));
    EXPECT_EQ(out.payload, m.payload);
}

TEST(Msg1, ManyMessagesOneFeed)
{
    std::vector<uint8_t> stream;
    for (uint64_t i = 0; i < 5; ++i) {
        WireMessage m = sampleMessage();
        m.request_id = i;
        const std::vector<uint8_t> f = encodeMessage(m);
        stream.insert(stream.end(), f.begin(), f.end());
    }
    FrameDecoder dec;
    dec.feed(stream.data(), stream.size());
    WireMessage out;
    for (uint64_t i = 0; i < 5; ++i) {
        ASSERT_TRUE(dec.next(out));
        EXPECT_EQ(out.request_id, i);
    }
    EXPECT_FALSE(dec.next(out));
}

TEST(Msg1, BadMagicThrowsAndPoisons)
{
    std::vector<uint8_t> frame = encodeMessage(sampleMessage());
    frame[0] ^= 0xFF;
    FrameDecoder dec;
    dec.feed(frame.data(), frame.size());
    WireMessage out;
    EXPECT_THROW(dec.next(out), std::runtime_error);
    // Poisoned: even well-formed follow-up bytes must keep throwing
    // (there is no trustworthy resync point).
    const std::vector<uint8_t> good = encodeMessage(sampleMessage());
    dec.feed(good.data(), good.size());
    EXPECT_THROW(dec.next(out), std::runtime_error);
}

TEST(Msg1, BadVersionThrows)
{
    std::vector<uint8_t> frame = encodeMessage(sampleMessage());
    frame[4] = 0x7F; // version field, little-endian low byte
    FrameDecoder dec;
    dec.feed(frame.data(), frame.size());
    WireMessage out;
    EXPECT_THROW(dec.next(out), std::runtime_error);
}

TEST(Msg1, LengthLieOverCapThrows)
{
    std::vector<uint8_t> frame = encodeMessage(sampleMessage());
    // Claim a payload length far over the decoder cap: must throw as
    // soon as the header is parsed, never allocate the claimed size.
    FrameLimits limits;
    limits.max_payload_bytes = 1024;
    const uint64_t lie = 1ull << 40;
    std::memcpy(&frame[36], &lie, sizeof(lie));
    FrameDecoder dec(limits);
    dec.feed(frame.data(), frame.size());
    WireMessage out;
    EXPECT_THROW(dec.next(out), std::runtime_error);
}

TEST(Msg1, ErrorPayloadRoundTrip)
{
    const std::vector<uint8_t> frame =
        encodeError(7, 99, WireError::Busy, "queue full");
    FrameDecoder dec;
    dec.feed(frame.data(), frame.size());
    WireMessage out;
    ASSERT_TRUE(dec.next(out));
    EXPECT_EQ(out.type, MsgType::Error);
    EXPECT_EQ(out.tenant, 7u);
    EXPECT_EQ(out.request_id, 99u);
    const ErrorInfo info = decodeErrorPayload(out.payload);
    EXPECT_EQ(info.code, WireError::Busy);
    EXPECT_EQ(info.text, "queue full");
}

TEST(Msg1, MalformedErrorPayloadThrows)
{
    std::vector<uint8_t> truncated = {1, 0, 0, 0, 50}; // lies length
    EXPECT_THROW(decodeErrorPayload(truncated), std::runtime_error);
    std::vector<uint8_t> tiny = {1};
    EXPECT_THROW(decodeErrorPayload(tiny), std::runtime_error);
}

// --- TCP primitives over loopback ------------------------------------

TEST(Tcp, ListenConnectRoundTrip)
{
    TcpListener lis = TcpListener::listenLoopback(0);
    ASSERT_TRUE(lis.valid());
    ASSERT_NE(lis.port(), 0u) << "ephemeral port resolved";
    EXPECT_FALSE(lis.accept().valid()) << "no pending connection";

    TcpConn client = TcpConn::connectLoopback(lis.port());
    ASSERT_TRUE(client.valid());
    TcpConn served;
    // The accept side is non-blocking; poll for the connection.
    Poller poller;
    for (int i = 0; i < 100 && !served.valid(); ++i) {
        poller.clear();
        poller.add(lis.fd(), true, false);
        poller.wait(50);
        served = lis.accept();
    }
    ASSERT_TRUE(served.valid());

    const char ping[] = "ping!";
    ASSERT_TRUE(client.writeFull(ping, sizeof(ping)));
    char buf[sizeof(ping)] = {};
    ASSERT_TRUE(served.readFull(buf, sizeof(buf)));
    EXPECT_STREQ(buf, ping);

    client.close();
    size_t got = 0;
    // After peer close the read path reports Eof (possibly after a
    // poll wakeup; readFull folds that in).
    EXPECT_FALSE(served.readFull(buf, 1));
    (void)got;
}

TEST(Tcp, BufferedSenderFlushesOverSocket)
{
    TcpListener lis = TcpListener::listenLoopback(0);
    ASSERT_TRUE(lis.valid());
    TcpConn client = TcpConn::connectLoopback(lis.port());
    ASSERT_TRUE(client.valid());
    TcpConn served;
    Poller poller;
    for (int i = 0; i < 100 && !served.valid(); ++i) {
        poller.clear();
        poller.add(lis.fd(), true, false);
        poller.wait(50);
        served = lis.accept();
    }
    ASSERT_TRUE(served.valid());
    ASSERT_TRUE(client.setNonBlocking(true));

    // Queue more than any kernel buffer default and pump flushTo
    // until drained: exercises short writes + WouldBlock retention.
    const size_t total = 8 << 20;
    BufferedSender sender;
    sender.queue(std::vector<uint8_t>(total, 0x5A));

    std::vector<uint8_t> received;
    received.reserve(total);
    std::vector<uint8_t> chunk(256 * 1024);
    int spins = 0;
    while (received.size() < total && spins < 100000) {
        ++spins;
        if (!sender.empty()) {
            const TcpConn::IoResult r = sender.flushTo(served);
            ASSERT_NE(r, TcpConn::IoResult::Error);
            ASSERT_NE(r, TcpConn::IoResult::Eof);
        }
        size_t got = 0;
        const TcpConn::IoResult r =
            client.readSome(chunk.data(), chunk.size(), got);
        if (r == TcpConn::IoResult::Ok)
            received.insert(received.end(), chunk.begin(),
                            chunk.begin() + long(got));
        else
            ASSERT_EQ(r, TcpConn::IoResult::WouldBlock);
    }
    ASSERT_EQ(received.size(), total);
    EXPECT_TRUE(sender.empty());
    for (size_t i = 0; i < total; i += 1 << 18)
        ASSERT_EQ(received[i], 0x5A) << "at " << i;
}

} // namespace
