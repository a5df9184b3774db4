/**
 * @file
 * StrixServer integration tests over live loopback sockets: the
 * tenant lifecycle (register / compute / re-register), admission
 * control, deadlines, budget-driven key eviction, drain semantics,
 * the egress cap and the bounded drain against a peer that never
 * reads, circuits of two tenants stepped at once by the event loop,
 * pipelined connections of two tenants, and a hostile-wire-input
 * suite (truncated, length-lying, type-confused, bit-flipped frames,
 * oversized payloads, LUTs wider than the ring or with extreme
 * entries) -- every hostile case must produce a structured error
 * frame or a clean close, never a crash. Runs under the unit label
 * so the ASan+UBSan CI leg executes all of it.
 */

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.h"
#include "server/server.h"
#include "server/wire_codec.h"
#include "support/test_util.h"
#include "tfhe/bootstrap.h"
#include "tfhe/client_keyset.h"
#include "tfhe/server_context.h"
#include "workloads/circuit.h"
#include "workloads/circuit_analysis.h"

using namespace strix;

namespace {

constexpr uint64_t kSpace = 8;

std::shared_ptr<const ClientKeyset>
keysetFor(uint64_t seed)
{
    return std::make_shared<const ClientKeyset>(testParams(48, 512), seed);
}

std::vector<uint8_t>
keysPayload(const ClientKeyset &keyset)
{
    return encodeEvalKeysPayload(*keyset.evalKeys(),
                                 EvalKeysFormat::Seeded);
}

int64_t
triple(int64_t v)
{
    return (3 * v) % int64_t(kSpace);
}

std::vector<uint8_t>
bootstrapPayload(const ClientKeyset &keyset, int64_t m)
{
    const TfheParams &p = keyset.evalKeys()->params();
    return encodeBootstrapPayload(
        keyset.encryptInt(m, kSpace),
        makeIntTestVector(p.N, kSpace, triple));
}

/** Encrypt the inputs of buildAdder(bits) for a + b. */
std::vector<LweCiphertext>
adderInputs(const ClientKeyset &keyset, uint32_t bits, uint64_t a,
            uint64_t b)
{
    std::vector<LweCiphertext> in;
    for (uint32_t i = 0; i < bits; ++i)
        in.push_back(keyset.encryptBit(((a >> i) & 1) != 0));
    for (uint32_t i = 0; i < bits; ++i)
        in.push_back(keyset.encryptBit(((b >> i) & 1) != 0));
    return in;
}

/** Decrypt an adder's sum bits (carry last) to an integer. */
uint64_t
adderSum(const ClientKeyset &keyset, const std::vector<LweCiphertext> &out)
{
    uint64_t v = 0;
    for (size_t i = 0; i < out.size(); ++i)
        v |= uint64_t(keyset.decryptBit(out[i])) << i;
    return v;
}

/** Register @p tenant through @p client; asserts success. */
void
registerTenant(StrixClient &client, uint64_t tenant,
               const ClientKeyset &keyset)
{
    StrixClient::Reply r = client.call(MsgType::RegisterTenant, tenant,
                                       keysPayload(keyset));
    ASSERT_TRUE(r.ok) << r.error_text;
}

/**
 * Server + connected client harness. Each test gets fresh instances
 * so option knobs and counters never leak between cases.
 */
struct Harness
{
    explicit Harness(StrixServer::Options opts = StrixServer::Options())
        : server(opts)
    {
        EXPECT_TRUE(server.start());
        EXPECT_TRUE(client.connectLoopback(server.port()));
    }

    StrixServer server;
    StrixClient client;
};

// --- lifecycle round trips -------------------------------------------

TEST(Server, PingRoundTrip)
{
    Harness h;
    EXPECT_TRUE(h.client.ping());
    EXPECT_TRUE(h.client.ping()) << "connection stays usable";
}

TEST(Server, BootstrapRoundTrip)
{
    Harness h;
    auto keyset = keysetFor(501);
    registerTenant(h.client, 1, *keyset);

    for (int64_t m = 0; m < 3; ++m) {
        StrixClient::Reply r = h.client.call(
            MsgType::Bootstrap, 1, bootstrapPayload(*keyset, m));
        ASSERT_TRUE(r.ok) << r.error_text;
        std::vector<LweCiphertext> out = decodeCiphertexts(r.payload);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(keyset->decryptInt(out[0], kSpace), triple(m));
    }
}

TEST(Server, ApplyLutRoundTripMatchesLocal)
{
    Harness h;
    auto keyset = keysetFor(501);
    registerTenant(h.client, 1, *keyset);
    ServerContext local(keyset->evalKeys());

    std::vector<int64_t> table;
    for (uint64_t v = 0; v < kSpace; ++v)
        table.push_back(triple(int64_t(v)));

    const int64_t m = 5;
    LweCiphertext ct = keyset->encryptInt(m, kSpace);
    StrixClient::Reply r =
        h.client.call(MsgType::ApplyLut, 1,
                      encodeApplyLutPayload(ct, kSpace, table));
    ASSERT_TRUE(r.ok) << r.error_text;
    std::vector<LweCiphertext> out = decodeCiphertexts(r.payload);
    ASSERT_EQ(out.size(), 1u);
    const int64_t got = keyset->decryptInt(out[0], kSpace);
    EXPECT_EQ(got, triple(m));
    EXPECT_EQ(got, keyset->decryptInt(local.applyLut(ct, kSpace, triple),
                                      kSpace));
}

TEST(Server, EvalCircuitRoundTrip)
{
    Harness h;
    auto keyset = keysetFor(501);
    registerTenant(h.client, 1, *keyset);

    Circuit c;
    const Wire a = c.input();
    const Wire b = c.input();
    c.output(c.gate(GateOp::Xor, a, b));
    c.output(c.gate(GateOp::And, a, b));

    for (int bits = 0; bits < 4; ++bits) {
        const bool va = (bits & 1) != 0, vb = (bits & 2) != 0;
        std::vector<LweCiphertext> inputs;
        inputs.push_back(keyset->encryptBit(va));
        inputs.push_back(keyset->encryptBit(vb));
        StrixClient::Reply r = h.client.call(
            MsgType::EvalCircuit, 1, encodeCircuitPayload(c, inputs));
        ASSERT_TRUE(r.ok) << r.error_text;
        std::vector<LweCiphertext> out = decodeCiphertexts(r.payload);
        ASSERT_EQ(out.size(), 2u);
        EXPECT_EQ(keyset->decryptBit(out[0]), va != vb);
        EXPECT_EQ(keyset->decryptBit(out[1]), va && vb);
    }
}

TEST(Server, ConcurrentCircuitsOfTwoTenantsMatchInProcess)
{
    // Two tenants on two connections each have an adder4 in flight at
    // once; the loop steps both runs, level by level, through the one
    // executor. Each reply must equal the in-process planned
    // evaluation under the very bundle the server decoded.
    Harness h;
    StrixClient client_b;
    ASSERT_TRUE(client_b.connectLoopback(h.server.port()));
    auto keyset_a = keysetFor(501);
    auto keyset_b = keysetFor(502);
    registerTenant(h.client, 1, *keyset_a);
    registerTenant(client_b, 2, *keyset_b);

    constexpr uint32_t kBits = 4;
    const Circuit adder = buildAdder(kBits);
    const std::vector<LweCiphertext> in_a =
        adderInputs(*keyset_a, kBits, 11, 6);
    const std::vector<LweCiphertext> in_b =
        adderInputs(*keyset_b, kBits, 5, 14);
    ASSERT_NE(h.client.send(MsgType::EvalCircuit, 1,
                            encodeCircuitPayload(adder, in_a)),
              0u);
    ASSERT_NE(client_b.send(MsgType::EvalCircuit, 2,
                            encodeCircuitPayload(adder, in_b)),
              0u);

    StrixClient::Reply ra, rb;
    ASSERT_TRUE(h.client.recvReply(ra));
    ASSERT_TRUE(client_b.recvReply(rb));
    ASSERT_TRUE(ra.ok) << ra.error_text;
    ASSERT_TRUE(rb.ok) << rb.error_text;

    const std::pair<const ClientKeyset *, const std::vector<LweCiphertext> *>
        sides[] = {{keyset_a.get(), &in_a}, {keyset_b.get(), &in_b}};
    const StrixClient::Reply *replies[] = {&ra, &rb};
    const uint64_t sums[] = {11 + 6, 5 + 14};
    for (size_t t = 0; t < 2; ++t) {
        const ClientKeyset &ks = *sides[t].first;
        ServerContext local(decodeEvalKeysPayload(keysPayload(ks)));
        const CircuitPlan plan = analyzeCircuit(adder, local.params());
        const std::vector<LweCiphertext> want =
            adder.evalEncrypted(local, *sides[t].second, plan);
        const std::vector<LweCiphertext> got =
            decodeCiphertexts(replies[t]->payload);
        ASSERT_EQ(got.size(), want.size()) << "tenant " << t + 1;
        for (size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i].raw(), want[i].raw())
                << "tenant " << t + 1 << " output " << i;
        EXPECT_EQ(adderSum(ks, got), sums[t]) << "tenant " << t + 1;
    }
}

// --- tenant lifecycle edges ------------------------------------------

TEST(Server, UnknownTenantRejected)
{
    Harness h;
    auto keyset = keysetFor(501);
    StrixClient::Reply r = h.client.call(
        MsgType::Bootstrap, 77, bootstrapPayload(*keyset, 1));
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error, WireError::UnknownTenant);
}

TEST(Server, ReRegisterIsIdempotent)
{
    Harness h;
    auto keyset = keysetFor(501);
    registerTenant(h.client, 1, *keyset);
    registerTenant(h.client, 1, *keyset);

    const CacheStats cs = h.server.cacheStats();
    EXPECT_EQ(cs.inserts, 1u) << "second upload adopted no new bundle";
    EXPECT_EQ(cs.entries, 1u);
}

TEST(Server, ReRegisterWithOtherKeysRejected)
{
    // A tenant id stays bound to the keys it registered: other keys
    // under that id are refused, and the resident bundle keeps
    // serving the tenant.
    Harness h;
    auto keyset_a = keysetFor(501);
    auto keyset_b = keysetFor(502);
    registerTenant(h.client, 1, *keyset_a);

    StrixClient::Reply r = h.client.call(MsgType::RegisterTenant, 1,
                                         keysPayload(*keyset_b));
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error, WireError::BadPayload);
    EXPECT_EQ(h.server.cacheStats().inserts, 1u);

    r = h.client.call(MsgType::Bootstrap, 1,
                      bootstrapPayload(*keyset_a, 5));
    ASSERT_TRUE(r.ok) << r.error_text;
    EXPECT_EQ(keyset_a->decryptInt(decodeCiphertexts(r.payload).at(0),
                                   kSpace),
              triple(5));
}

TEST(Server, UnknownMessageTypeAnswered)
{
    Harness h;
    StrixClient::Reply r =
        h.client.call(static_cast<MsgType>(0x55), 1, {});
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error, WireError::UnknownType);
    EXPECT_TRUE(h.client.ping()) << "connection survives";
}

// --- admission control ------------------------------------------------

TEST(Server, PerTenantInflightCapRejectsBusy)
{
    StrixServer::Options opts;
    opts.max_inflight_per_tenant = 2;
    // Executor never flushes on its own: admitted requests stay
    // pending until drain, so the 3rd and 4th pipelined requests
    // deterministically hit the cap.
    opts.exec.target_batch = 1000;
    opts.exec.flush_delay_us = 1000ull * 1000 * 1000;
    Harness h(opts);
    auto keyset = keysetFor(501);
    registerTenant(h.client, 1, *keyset);

    for (int i = 0; i < 4; ++i)
        ASSERT_NE(h.client.send(MsgType::Bootstrap, 1,
                                bootstrapPayload(*keyset, i)),
                  0u);

    // The two rejects reply immediately; the two admitted requests
    // are only fulfilled by the drain below.
    StrixClient::Reply r1, r2;
    ASSERT_TRUE(h.client.recvReply(r1));
    ASSERT_TRUE(h.client.recvReply(r2));
    EXPECT_FALSE(r1.ok);
    EXPECT_EQ(r1.error, WireError::Busy);
    EXPECT_FALSE(r2.ok);
    EXPECT_EQ(r2.error, WireError::Busy);

    h.server.stop(); // drain fulfils the admitted pair
    StrixClient::Reply r3, r4;
    ASSERT_TRUE(h.client.recvReply(r3));
    ASSERT_TRUE(h.client.recvReply(r4));
    EXPECT_TRUE(r3.ok);
    EXPECT_TRUE(r4.ok);
    EXPECT_EQ(h.server.stats().busy_rejects, 2u);
}

TEST(Server, GlobalQueueDepthRejectsBusy)
{
    StrixServer::Options opts;
    opts.max_queue_depth = 1;
    opts.exec.target_batch = 1000;
    opts.exec.flush_delay_us = 1000ull * 1000 * 1000;
    Harness h(opts);
    auto keyset = keysetFor(501);
    registerTenant(h.client, 1, *keyset);

    for (int i = 0; i < 2; ++i)
        ASSERT_NE(h.client.send(MsgType::Bootstrap, 1,
                                bootstrapPayload(*keyset, i)),
                  0u);
    StrixClient::Reply r1;
    ASSERT_TRUE(h.client.recvReply(r1));
    EXPECT_FALSE(r1.ok);
    EXPECT_EQ(r1.error, WireError::Busy);
    h.server.stop();
    StrixClient::Reply r2;
    ASSERT_TRUE(h.client.recvReply(r2));
    EXPECT_TRUE(r2.ok);
}

// --- deadlines --------------------------------------------------------

TEST(Server, DeadlineExceededOnLateCompletion)
{
    Harness h;
    auto keyset = keysetFor(501);
    registerTenant(h.client, 1, *keyset);

    // A 1 us budget cannot cover a PBS (hundreds of us at these
    // parameters): the work completes, the reply is the structured
    // deadline error instead of a stale result.
    StrixClient::Reply r =
        h.client.call(MsgType::Bootstrap, 1,
                      bootstrapPayload(*keyset, 1), /*deadline_us=*/1);
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error, WireError::DeadlineExceeded);
    EXPECT_EQ(h.server.stats().deadline_misses, 1u);
}

TEST(Server, GenerousDeadlineIsMet)
{
    Harness h;
    auto keyset = keysetFor(501);
    registerTenant(h.client, 1, *keyset);
    StrixClient::Reply r = h.client.call(
        MsgType::Bootstrap, 1, bootstrapPayload(*keyset, 1),
        /*deadline_us=*/60ull * 1000 * 1000);
    EXPECT_TRUE(r.ok) << r.error_text;
    EXPECT_EQ(h.server.stats().deadline_misses, 0u);
}

TEST(Server, HugeDeadlineNeverExpires)
{
    // now + deadline would wrap past 2^64 to a time already gone; the
    // server saturates it instead, so the request is simply served.
    Harness h;
    auto keyset = keysetFor(501);
    registerTenant(h.client, 1, *keyset);
    StrixClient::Reply r =
        h.client.call(MsgType::Bootstrap, 1, bootstrapPayload(*keyset, 1),
                      /*deadline_us=*/std::numeric_limits<uint64_t>::max());
    EXPECT_TRUE(r.ok) << r.error_text;
    EXPECT_EQ(h.server.stats().deadline_misses, 0u);
}

// --- budget-driven eviction ------------------------------------------

TEST(Server, BudgetEvictsIdleTenantWhoMustReRegister)
{
    auto keyset_a = keysetFor(501);
    auto keyset_b = keysetFor(502);
    const uint64_t bundle_bytes =
        keyset_a->evalKeys()->residentBytes();

    StrixServer::Options opts;
    // Room for one bundle plus slack, never two: registering B must
    // evict idle A.
    opts.cache_budget_bytes = bundle_bytes + bundle_bytes / 2;
    Harness h(opts);

    registerTenant(h.client, 1, *keyset_a);
    StrixClient::Reply r = h.client.call(
        MsgType::Bootstrap, 1, bootstrapPayload(*keyset_a, 1));
    ASSERT_TRUE(r.ok) << r.error_text;

    registerTenant(h.client, 2, *keyset_b);
    EXPECT_GE(h.server.cacheStats().evictions, 1u);

    // A was evicted: structured error, not a crash or a wrong answer.
    r = h.client.call(MsgType::Bootstrap, 1,
                      bootstrapPayload(*keyset_a, 1));
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error, WireError::UnknownTenant);

    // Re-registering restores service (and now evicts idle B).
    registerTenant(h.client, 1, *keyset_a);
    r = h.client.call(MsgType::Bootstrap, 1,
                      bootstrapPayload(*keyset_a, 2));
    ASSERT_TRUE(r.ok) << r.error_text;
    std::vector<LweCiphertext> out = decodeCiphertexts(r.payload);
    EXPECT_EQ(keyset_a->decryptInt(out.at(0), kSpace), triple(2));
}

// --- hostile wire input ----------------------------------------------

/**
 * Send raw bytes, then read whatever comes back until the peer
 * closes. Returns the decoded error replies seen (possibly none, if
 * the server just closed). The connection must terminate -- a server
 * that neither answers nor closes would hang this helper's 5 s guard.
 */
std::vector<ErrorInfo>
sendHostileBytes(uint16_t port, const std::vector<uint8_t> &bytes,
                 bool half_close = false)
{
    TcpConn conn = TcpConn::connectLoopback(port);
    EXPECT_TRUE(conn.valid());
    EXPECT_TRUE(conn.writeFull(bytes.data(), bytes.size()));
    if (half_close)
        ::shutdown(conn.fd(), SHUT_WR);

    std::vector<ErrorInfo> errors;
    FrameDecoder dec;
    std::vector<uint8_t> buf(64 * 1024);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
        size_t got = 0;
        const TcpConn::IoResult r =
            conn.readSome(buf.data(), buf.size(), got);
        if (r == TcpConn::IoResult::Eof ||
            r == TcpConn::IoResult::Error)
            break;
        if (r != TcpConn::IoResult::Ok)
            continue;
        dec.feed(buf.data(), got);
        WireMessage m;
        while (dec.next(m))
            if (m.type == MsgType::Error)
                errors.push_back(decodeErrorPayload(m.payload));
    }
    return errors;
}

TEST(ServerHostile, GarbageBytesGetErrorFrameThenClose)
{
    Harness h;
    std::vector<uint8_t> garbage(100);
    for (size_t i = 0; i < garbage.size(); ++i)
        garbage[i] = uint8_t(0xC0 + i);
    std::vector<ErrorInfo> errs =
        sendHostileBytes(h.server.port(), garbage);
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_EQ(errs[0].code, WireError::Protocol);
    EXPECT_TRUE(h.client.ping()) << "server survives hostile conn";
}

TEST(ServerHostile, TruncatedFrameThenDisconnectIsClean)
{
    Harness h;
    WireMessage m;
    m.type = MsgType::Ping;
    m.payload = std::vector<uint8_t>(1000, 7);
    std::vector<uint8_t> frame = encodeMessage(m);
    frame.resize(frame.size() / 2); // half a message, then FIN
    std::vector<ErrorInfo> errs =
        sendHostileBytes(h.server.port(), frame, /*half_close=*/true);
    EXPECT_TRUE(errs.empty()) << "incomplete frame is not an error";
    EXPECT_TRUE(h.client.ping());
}

TEST(ServerHostile, LengthLyingHeaderRejected)
{
    Harness h;
    std::vector<uint8_t> frame = encodeMessage(WireMessage{});
    const uint64_t lie = 1ull << 62; // over any cap
    std::memcpy(&frame[36], &lie, sizeof(lie));
    std::vector<ErrorInfo> errs =
        sendHostileBytes(h.server.port(), frame);
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_EQ(errs[0].code, WireError::Protocol);
    EXPECT_TRUE(h.client.ping());
}

TEST(ServerHostile, TypeConfusedPayloadRejectedConnSurvives)
{
    Harness h;
    auto keyset = keysetFor(501);
    registerTenant(h.client, 1, *keyset);

    // A well-formed ApplyLut payload sent as a Bootstrap request: the
    // validating reader rejects it, the connection stays usable.
    std::vector<int64_t> table(kSpace, 1);
    LweCiphertext ct = keyset->encryptInt(1, kSpace);
    StrixClient::Reply r = h.client.call(
        MsgType::Bootstrap, 1,
        encodeApplyLutPayload(ct, kSpace, table));
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error, WireError::BadPayload);
    EXPECT_TRUE(h.client.ping());

    r = h.client.call(MsgType::Bootstrap, 1,
                      bootstrapPayload(*keyset, 1));
    EXPECT_TRUE(r.ok) << "tenant still serviceable: "
                      << r.error_text;
}

TEST(ServerHostile, BitFlippedPayloadRejected)
{
    Harness h;
    auto keyset = keysetFor(501);
    registerTenant(h.client, 1, *keyset);

    std::vector<uint8_t> payload = bootstrapPayload(*keyset, 1);
    payload[2] ^= 0x10; // corrupt the inner LCT1 frame tag
    StrixClient::Reply r =
        h.client.call(MsgType::Bootstrap, 1, payload);
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error, WireError::BadPayload);
    EXPECT_TRUE(h.client.ping());
}

TEST(ServerHostile, BitFlippedKeyUploadRejected)
{
    Harness h;
    auto keyset = keysetFor(501);
    std::vector<uint8_t> payload = keysPayload(*keyset);
    payload[payload.size() / 2] ^= 0x01;
    StrixClient::Reply r =
        h.client.call(MsgType::RegisterTenant, 9, payload);
    // Either the validating reader catches the flip (BadPayload) or
    // the flip landed in raw key material and deserializes to a
    // different-but-well-formed bundle; both are acceptable -- the
    // requirement is no crash and a usable server.
    if (!r.ok) {
        EXPECT_EQ(r.error, WireError::BadPayload);
    }
    EXPECT_TRUE(h.client.ping());
}

TEST(ServerHostile, GadgetOutsideDecomposerUploadRejected)
{
    // Self-consistent EVK2 uploads whose gadget the decomposer cannot
    // run: BSK 12 bits x 3 levels, KSK 5 bits x 8 levels (36 and 40
    // digit bits on a 32-bit torus). Accepted, the first Bootstrap
    // would shift out of range or abort the whole daemon; they must
    // be answered BadPayload at registration instead.
    Harness h;
    auto keyset = keysetFor(501);
    const std::pair<test::Evk2Gadget, uint32_t> hostile[] = {
        {test::Evk2Gadget::Bsk, 12},
        {test::Evk2Gadget::Ksk, 5},
    };
    for (const auto &[gadget, base_bits] : hostile) {
        const std::string frame = test::evk2WithGadgetBaseBits(
            *keyset->evalKeys(), gadget, base_bits);
        StrixClient::Reply r = h.client.call(
            MsgType::RegisterTenant, 9,
            std::vector<uint8_t>(frame.begin(), frame.end()));
        ASSERT_FALSE(r.ok) << "base_bits=" << base_bits;
        EXPECT_EQ(r.error, WireError::BadPayload) << r.error_text;
    }
    StrixClient::Reply r =
        h.client.call(MsgType::Bootstrap, 9, bootstrapPayload(*keyset, 1));
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error, WireError::UnknownTenant) << "nothing was cached";

    // The daemon is alive and still serves a valid tenant.
    registerTenant(h.client, 1, *keyset);
    r = h.client.call(MsgType::Bootstrap, 1, bootstrapPayload(*keyset, 2));
    ASSERT_TRUE(r.ok) << r.error_text;
    std::vector<LweCiphertext> out = decodeCiphertexts(r.payload);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(keyset->decryptInt(out[0], kSpace), triple(2));
}

TEST(ServerHostile, OversizedComputePayloadRejected)
{
    StrixServer::Options opts;
    opts.max_request_payload_bytes = 1024;
    Harness h(opts);
    auto keyset = keysetFor(501);
    registerTenant(h.client, 1, *keyset);

    StrixClient::Reply r = h.client.call(
        MsgType::Bootstrap, 1, std::vector<uint8_t>(4096, 0));
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error, WireError::PayloadTooLarge);
    EXPECT_TRUE(h.client.ping());
}

TEST(ServerHostile, LutWiderThanRingRejected)
{
    // msg_space passes the decoder's cap but exceeds the tenant's ring
    // (N = 512): the test vector cannot hold it, so the request is
    // BadPayload -- not a daemon abort -- and the tenant stays served.
    Harness h;
    auto keyset = keysetFor(501);
    registerTenant(h.client, 1, *keyset);
    const uint64_t wide = 2 * uint64_t(keyset->evalKeys()->params().N);
    ASSERT_LE(wide, kMaxLutMsgSpace);

    StrixClient::Reply r = h.client.call(
        MsgType::ApplyLut, 1,
        encodeApplyLutPayload(keyset->encryptInt(1, kSpace), wide,
                              std::vector<int64_t>(wide, 1)));
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error, WireError::BadPayload) << r.error_text;

    r = h.client.call(MsgType::Bootstrap, 1, bootstrapPayload(*keyset, 2));
    ASSERT_TRUE(r.ok) << r.error_text;
    EXPECT_EQ(keyset->decryptInt(decodeCiphertexts(r.payload).at(0),
                                 kSpace),
              triple(2));
}

TEST(ServerHostile, ExtremeLutEntriesDecodeModMsgSpace)
{
    // Table entries come off the wire as raw int64s; the encoder must
    // reduce them without signed overflow (UBSan fails this at
    // INT64_MAX/INT64_MIN otherwise). Each reply decodes to its entry
    // mod msg_space.
    Harness h;
    auto keyset = keysetFor(501);
    registerTenant(h.client, 1, *keyset);
    std::vector<int64_t> table(kSpace, 0);
    table[0] = std::numeric_limits<int64_t>::max();
    table[1] = std::numeric_limits<int64_t>::min();
    for (int64_t m = 0; m < 2; ++m) {
        StrixClient::Reply r = h.client.call(
            MsgType::ApplyLut, 1,
            encodeApplyLutPayload(keyset->encryptInt(m, kSpace), kSpace,
                                  table));
        ASSERT_TRUE(r.ok) << r.error_text;
        const int64_t entry = table[size_t(m)];
        const int64_t want =
            (entry % int64_t(kSpace) + int64_t(kSpace)) % int64_t(kSpace);
        EXPECT_EQ(keyset->decryptInt(decodeCiphertexts(r.payload).at(0),
                                     kSpace),
                  want)
            << "entry " << entry;
    }
}

TEST(ServerHostile, HostileCircuitOperandsRejected)
{
    Harness h;
    auto keyset = keysetFor(501);
    registerTenant(h.client, 1, *keyset);

    // Hand-build a circuit payload whose gate references a forward
    // wire (out of topological order): must be BadPayload, not a
    // daemon panic.
    Circuit c;
    const Wire a = c.input();
    const Wire b = c.input();
    c.output(c.gate(GateOp::And, a, b));
    std::vector<LweCiphertext> inputs;
    inputs.push_back(keyset->encryptBit(true));
    inputs.push_back(keyset->encryptBit(false));
    std::vector<uint8_t> payload = encodeCircuitPayload(c, inputs);
    // Node records (5 x u32 each) start after the 8-byte CIQ1 frame
    // header + u64 node count; node 2 (the gate) sits at offset
    // 16 + 2*20. Its `a` operand field is 4 bytes in; point it at
    // wire 7 (beyond every node).
    const size_t gate_a_off = 16 + 2 * 20 + 4;
    payload[gate_a_off] = 7;
    StrixClient::Reply r =
        h.client.call(MsgType::EvalCircuit, 1, payload);
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error, WireError::BadPayload);
    EXPECT_TRUE(h.client.ping());
}

// --- drain / shutdown -------------------------------------------------

TEST(Server, DrainFulfilsPendingBeforeShutdown)
{
    StrixServer::Options opts;
    // The executor's own triggers never fire; only the shutdown
    // drain can fulfil the requests -- and step the circuit through
    // each of its levels.
    opts.exec.target_batch = 1000;
    opts.exec.flush_delay_us = 1000ull * 1000 * 1000;
    Harness h(opts);
    auto keyset = keysetFor(501);
    registerTenant(h.client, 1, *keyset);

    const uint64_t boot_id = h.client.send(MsgType::Bootstrap, 1,
                                           bootstrapPayload(*keyset, 3));
    ASSERT_NE(boot_id, 0u);
    constexpr uint32_t kBits = 2;
    const Circuit adder = buildAdder(kBits);
    ASSERT_GT(analyzeCircuit(adder, keyset->evalKeys()->params()).depth(),
              1u)
        << "the circuit must need more than one drain-forced level";
    const uint64_t circuit_id = h.client.send(
        MsgType::EvalCircuit, 1,
        encodeCircuitPayload(adder, adderInputs(*keyset, kBits, 3, 2)));
    ASSERT_NE(circuit_id, 0u);
    // Wait until the server has admitted both requests (stop() stops
    // reading, so racing it could drop an unread frame instead).
    while (h.server.stats().requests < 3)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    h.server.stop();
    for (int i = 0; i < 2; ++i) {
        StrixClient::Reply r;
        ASSERT_TRUE(h.client.recvReply(r));
        ASSERT_TRUE(r.ok) << r.error_text;
        std::vector<LweCiphertext> out = decodeCiphertexts(r.payload);
        if (r.request_id == boot_id) {
            EXPECT_EQ(keyset->decryptInt(out.at(0), kSpace), triple(3));
        } else {
            EXPECT_EQ(r.request_id, circuit_id);
            EXPECT_EQ(adderSum(*keyset, out), 3u + 2u);
        }
    }
    EXPECT_GE(h.server.executorStats().drain_flushes, 2u);
}

TEST(Server, RequestsDuringDrainAnswerShuttingDown)
{
    Harness h;
    auto keyset = keysetFor(501);
    registerTenant(h.client, 1, *keyset);
    h.server.stop();
    // The listener is closed and reads stop during drain; by now the
    // server is fully down, so the connection just dies -- the
    // guarantee is a clean close, not a reply.
    StrixClient::Reply r = h.client.call(
        MsgType::Bootstrap, 1, bootstrapPayload(*keyset, 1));
    EXPECT_FALSE(r.ok);
}

// --- a peer that never reads its replies -----------------------------

/** Ping frames as large as the egress cap, so few fill it. */
std::vector<uint8_t>
bigPingFrame()
{
    WireMessage m;
    m.type = MsgType::Ping;
    m.payload.assign(StrixServer::kMaxUnsentBytes, 0xA5);
    return encodeMessage(m);
}

/**
 * Write copies of @p frame on the non-blocking @p conn and read
 * nothing, until @p budget bytes are out or none has gone out for 1 s.
 * Returns the bytes written.
 */
size_t
pushUnread(TcpConn &conn, const std::vector<uint8_t> &frame, size_t budget)
{
    size_t pushed = 0;
    Poller poller;
    while (pushed < budget) {
        const size_t off = pushed % frame.size();
        size_t put = 0;
        const TcpConn::IoResult r =
            conn.writeSome(frame.data() + off, frame.size() - off, put);
        if (r == TcpConn::IoResult::Ok) {
            pushed += put;
            continue;
        }
        if (r != TcpConn::IoResult::WouldBlock)
            break;
        poller.clear();
        poller.add(conn.fd(), false, true);
        if (poller.wait(1000) == 0)
            break; // stalled: the server stopped reading
    }
    return pushed;
}

TEST(Server, UnreadRepliesStallThePeerAtTheEgressCap)
{
    Harness h;
    TcpConn peer = TcpConn::connectLoopback(h.server.port());
    ASSERT_TRUE(peer.valid());
    ASSERT_TRUE(peer.setNonBlocking(true));
    const std::vector<uint8_t> frame = bigPingFrame();

    // The daemon may take the cap, what it read past it, and the
    // kernel's socket buffers -- not the 160 MiB on offer.
    size_t pushed = pushUnread(peer, frame, 160u << 20);
    EXPECT_LT(pushed, 64u << 20);

    // Reading the replies lifts the stall: the rest of the last frame
    // goes out and every Ping begun is echoed.
    const size_t begun = (pushed + frame.size() - 1) / frame.size();
    const size_t total = begun * frame.size();
    FrameDecoder dec;
    std::vector<uint8_t> buf(256 * 1024);
    size_t echoed = 0;
    Poller poller;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (echoed < begun && std::chrono::steady_clock::now() < deadline) {
        size_t put = 0, got = 0;
        if (pushed < total &&
            peer.writeSome(frame.data() + pushed % frame.size(),
                           total - pushed, put) == TcpConn::IoResult::Ok)
            pushed += put;
        const TcpConn::IoResult r = peer.readSome(buf.data(), buf.size(), got);
        ASSERT_TRUE(r == TcpConn::IoResult::Ok ||
                    r == TcpConn::IoResult::WouldBlock);
        if (r == TcpConn::IoResult::Ok) {
            dec.feed(buf.data(), got);
            WireMessage m;
            while (dec.next(m)) {
                ASSERT_EQ(m.type, MsgType::Ok);
                EXPECT_EQ(m.payload.size(), StrixServer::kMaxUnsentBytes);
                ++echoed;
            }
            continue;
        }
        poller.clear();
        poller.add(peer.fd(), true, pushed < total);
        poller.wait(100);
    }
    EXPECT_EQ(echoed, begun);
}

TEST(Server, StopClosesAPeerThatStoppedReading)
{
    Harness h;
    TcpConn peer = TcpConn::connectLoopback(h.server.port());
    ASSERT_TRUE(peer.valid());
    ASSERT_TRUE(peer.setNonBlocking(true));
    const std::vector<uint8_t> frame = bigPingFrame();
    const size_t budget = 16 * frame.size();
    // Leave replies unsent: the peer stalls at the egress cap, or, with
    // no cap, the server reads every Ping and holds all the echoes.
    if (pushUnread(peer, frame, budget) == budget)
        for (int i = 0; i < 10000 && h.server.stats().requests < 16; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));

    const auto grace = std::chrono::microseconds(StrixServer::kDrainGraceUs);
    std::atomic<bool> stopped{false};
    bool closed_by_watchdog = false;
    std::thread watchdog([&] {
        const auto until = std::chrono::steady_clock::now() + 3 * grace;
        while (!stopped.load() && std::chrono::steady_clock::now() < until)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        if (!stopped.load()) {
            closed_by_watchdog = true;
            peer.close(); // lets a stop() that waits for the peer return
        }
    });
    const auto t0 = std::chrono::steady_clock::now();
    h.server.stop();
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - t0;
    stopped = true;
    watchdog.join();
    EXPECT_FALSE(closed_by_watchdog) << "stop() waited for the peer";
    EXPECT_LT(took.count(), StrixServer::kDrainGraceUs / 1e6 + 2.0)
        << "seconds in stop()";
}

TEST(Server, StressManyConnectionsTwoTenants)
{
    // Four connections over two tenants, each keeping a window of 2 or
    // 3 requests in flight. Replies come back in completion order, so
    // each is matched by request id; Bootstrap and ApplyLut alternate,
    // and every reply is decoded.
    StrixServer::Options opts;
    opts.exec.target_batch = 8;
    opts.exec.flush_delay_us = 300;
    Harness h(opts);
    auto keyset_a = keysetFor(501);
    auto keyset_b = keysetFor(502);
    std::vector<int64_t> table;
    for (uint64_t v = 0; v < kSpace; ++v)
        table.push_back(triple(int64_t(v)));

    constexpr int kRequests = 8;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            const uint64_t tenant = t % 2 == 0 ? 1 : 2;
            const ClientKeyset &ks =
                tenant == 1 ? *keyset_a : *keyset_b;
            const size_t window = t < 2 ? 2 : 3;
            StrixClient c;
            if (!c.connectLoopback(h.server.port())) {
                ++failures;
                return;
            }
            StrixClient::Reply reg = c.call(MsgType::RegisterTenant,
                                            tenant, keysPayload(ks));
            if (!reg.ok) {
                ++failures;
                return;
            }
            std::map<uint64_t, int64_t> in_flight; // request id -> m
            int sent = 0;
            for (int answered = 0; answered < kRequests; ++answered) {
                while (sent < kRequests && in_flight.size() < window) {
                    const int64_t m = sent % int64_t(kSpace);
                    const bool lut = sent % 2 == 1;
                    const uint64_t id =
                        lut ? c.send(MsgType::ApplyLut, tenant,
                                     encodeApplyLutPayload(
                                         ks.encryptInt(m, kSpace), kSpace,
                                         table))
                            : c.send(MsgType::Bootstrap, tenant,
                                     bootstrapPayload(ks, m));
                    if (id == 0) {
                        ++failures;
                        return;
                    }
                    in_flight[id] = m;
                    ++sent;
                }
                StrixClient::Reply r;
                if (!c.recvReply(r)) {
                    ++failures;
                    return;
                }
                auto it = in_flight.find(r.request_id);
                if (!r.ok || it == in_flight.end() ||
                    ks.decryptInt(decodeCiphertexts(r.payload).at(0),
                                  kSpace) != triple(it->second)) {
                    ++failures;
                    return;
                }
                in_flight.erase(it);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(h.server.stats().protocol_errors, 0u);
}

} // namespace
