/**
 * @file
 * MSG1 payload codec implementation.
 *
 * Every decoder reads the payload bytes in place, through an istream
 * over the vector, the validating FrameReader layer and the hardened
 * serialize.h readers, and finishes by checking the payload was
 * consumed exactly (no trailing garbage rides along). All failures
 * throw std::runtime_error. Every encoder writes through an ostream
 * straight into the vector it returns, so a 16 MB EVK2 frame is
 * neither copied on the way in nor on the way out.
 */

#include "server/wire_codec.h"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <utility>

namespace strix {

namespace {

/** Sub-frame tags for the typed request headers. */
constexpr uint32_t kTagLutRequest = 0x3151554C;     // "LUQ1"
constexpr uint32_t kTagCircuitRequest = 0x31514943; // "CIQ1"
constexpr uint32_t kTagCiphertexts = 0x31535443;    // "CTS1"

/**
 * The stream the encoders write a payload through: every byte goes
 * straight into the vector take() returns, with no buffer between.
 */
class PayloadOut : private std::streambuf, public std::ostream
{
  public:
    PayloadOut() : std::ostream(this) {}
    PayloadOut(const PayloadOut &) = delete;
    PayloadOut &operator=(const PayloadOut &) = delete;

    /** The payload written so far, moved out. */
    std::vector<uint8_t> take() { return std::move(bytes_); }

  private:
    using Traits = std::streambuf::traits_type;

    std::streambuf::int_type overflow(std::streambuf::int_type c) override
    {
        if (!Traits::eq_int_type(c, Traits::eof()))
            bytes_.push_back(static_cast<uint8_t>(c));
        return Traits::not_eof(c);
    }

    std::streamsize xsputn(const char *s, std::streamsize n) override
    {
        bytes_.insert(bytes_.end(), s, s + n);
        return n;
    }

    std::vector<uint8_t> bytes_;
};

/** The stream the decoders read a payload through, in place. */
class PayloadIn : private std::streambuf, public std::istream
{
  public:
    explicit PayloadIn(const std::vector<uint8_t> &payload)
        : std::istream(this)
    {
        // The get area is only read: streambuf's interface takes a
        // mutable pointer, but nothing here writes through it.
        char *begin = const_cast<char *>(
            reinterpret_cast<const char *>(payload.data()));
        setg(begin, begin, begin + payload.size());
    }
    PayloadIn(const PayloadIn &) = delete;
    PayloadIn &operator=(const PayloadIn &) = delete;
};

void
expectFullyConsumed(std::istream &is)
{
    if (is.peek() != std::char_traits<char>::eof())
        throw std::runtime_error(
            "serialize: trailing bytes after payload");
}

} // namespace

// --- Bootstrap -------------------------------------------------------

std::vector<uint8_t>
encodeBootstrapPayload(const LweCiphertext &ct,
                       const TorusPolynomial &tv)
{
    PayloadOut os;
    serialize(os, ct);
    serialize(os, tv);
    return os.take();
}

BootstrapRequest
decodeBootstrapPayload(const std::vector<uint8_t> &payload)
{
    PayloadIn is(payload);
    BootstrapRequest req{deserializeLweCiphertext(is),
                         deserializeTorusPolynomial(is)};
    expectFullyConsumed(is);
    return req;
}

// --- ApplyLut --------------------------------------------------------

std::vector<uint8_t>
encodeApplyLutPayload(const LweCiphertext &ct, uint64_t msg_space,
                      const std::vector<int64_t> &table)
{
    PayloadOut os;
    FrameWriter w(os, kTagLutRequest, 1);
    w.u64(msg_space);
    w.u64(table.size());
    for (int64_t v : table)
        w.u64(static_cast<uint64_t>(v)); // two's-complement round trip
    serialize(os, ct);
    return os.take();
}

ApplyLutRequest
decodeApplyLutPayload(const std::vector<uint8_t> &payload)
{
    PayloadIn is(payload);
    FrameReader r(is, kTagLutRequest, 1, "LUT request");
    ApplyLutRequest req;
    req.msg_space = r.u64();
    if (req.msg_space < 2 || req.msg_space > kMaxLutMsgSpace)
        throw std::runtime_error("serialize: implausible msg_space");
    const uint64_t count = r.u64();
    if (count != req.msg_space)
        throw std::runtime_error(
            "serialize: LUT table size != msg_space");
    req.table.reserve(count);
    for (uint64_t i = 0; i < count; ++i)
        req.table.push_back(static_cast<int64_t>(r.u64()));
    req.ct = deserializeLweCiphertext(is);
    expectFullyConsumed(is);
    return req;
}

// --- EvalCircuit -----------------------------------------------------

std::vector<uint8_t>
encodeCircuitPayload(const Circuit &circuit,
                     const std::vector<LweCiphertext> &inputs)
{
    PayloadOut os;
    FrameWriter w(os, kTagCircuitRequest, 1);
    w.u64(circuit.numNodes());
    for (Wire i = 0; i < circuit.numNodes(); ++i) {
        const Circuit::Node &n = circuit.node(i);
        w.u32(static_cast<uint32_t>(n.op));
        w.u32(n.a);
        w.u32(n.b);
        w.u32(n.c);
        w.u32(n.const_value ? 1 : 0);
    }
    w.u64(circuit.numOutputs());
    for (Wire o : circuit.outputs())
        w.u32(o);
    w.u64(inputs.size());
    for (const LweCiphertext &ct : inputs)
        serialize(os, ct);
    return os.take();
}

CircuitRequest
decodeCircuitPayload(const std::vector<uint8_t> &payload)
{
    PayloadIn is(payload);
    FrameReader r(is, kTagCircuitRequest, 1, "circuit request");
    const uint64_t num_nodes = r.u64();
    if (num_nodes > kMaxCircuitNodes)
        throw std::runtime_error(
            "serialize: implausible circuit size");
    CircuitRequest req;
    // Rebuild through the public netlist API so its topological-order
    // panics become our validation: operands are range-checked here
    // first, so hostile indices throw instead of panicking the daemon.
    for (uint64_t i = 0; i < num_nodes; ++i) {
        const uint32_t op_raw = r.u32();
        const Wire a = r.u32();
        const Wire b = r.u32();
        const Wire c = r.u32();
        const bool const_value = r.u32() != 0;
        if (op_raw > static_cast<uint32_t>(GateOp::Const))
            throw std::runtime_error("serialize: unknown gate op");
        const auto op = static_cast<GateOp>(op_raw);
        auto checkOperand = [i](Wire w) {
            if (w >= i)
                throw std::runtime_error(
                    "serialize: circuit operand out of order");
        };
        switch (op) {
        case GateOp::Input:
            req.circuit.input();
            break;
        case GateOp::Const:
            req.circuit.constant(const_value);
            break;
        case GateOp::Not:
            checkOperand(a);
            req.circuit.notGate(a);
            break;
        case GateOp::Mux:
            checkOperand(a);
            checkOperand(b);
            checkOperand(c);
            req.circuit.mux(a, b, c);
            break;
        default:
            checkOperand(a);
            checkOperand(b);
            req.circuit.gate(op, a, b);
            break;
        }
    }
    const uint64_t num_outputs = r.u64();
    if (num_outputs > num_nodes)
        throw std::runtime_error(
            "serialize: more outputs than nodes");
    for (uint64_t i = 0; i < num_outputs; ++i) {
        const Wire o = r.u32();
        if (o >= num_nodes)
            throw std::runtime_error(
                "serialize: output wire out of range");
        req.circuit.output(o);
    }
    const uint64_t num_inputs = r.u64();
    if (num_inputs != req.circuit.numInputs())
        throw std::runtime_error(
            "serialize: input ciphertext count mismatch");
    req.inputs.reserve(num_inputs);
    for (uint64_t i = 0; i < num_inputs; ++i)
        req.inputs.push_back(deserializeLweCiphertext(is));
    expectFullyConsumed(is);
    return req;
}

// --- ciphertext vectors ----------------------------------------------

std::vector<uint8_t>
encodeCiphertexts(const std::vector<LweCiphertext> &cts)
{
    PayloadOut os;
    FrameWriter w(os, kTagCiphertexts, 1);
    w.u64(cts.size());
    for (const LweCiphertext &ct : cts)
        serialize(os, ct);
    return os.take();
}

std::vector<LweCiphertext>
decodeCiphertexts(const std::vector<uint8_t> &payload)
{
    PayloadIn is(payload);
    FrameReader r(is, kTagCiphertexts, 1, "ciphertext vector");
    const uint64_t count = r.u64();
    if (count > kMaxWireCiphertexts)
        throw std::runtime_error(
            "serialize: implausible ciphertext count");
    std::vector<LweCiphertext> cts;
    cts.reserve(count);
    for (uint64_t i = 0; i < count; ++i)
        cts.push_back(deserializeLweCiphertext(is));
    expectFullyConsumed(is);
    return cts;
}

// --- RegisterTenant --------------------------------------------------

std::vector<uint8_t>
encodeEvalKeysPayload(const EvalKeys &keys, EvalKeysFormat format)
{
    PayloadOut os;
    serialize(os, keys, format);
    return os.take();
}

std::shared_ptr<const EvalKeys>
decodeEvalKeysPayload(const std::vector<uint8_t> &payload)
{
    PayloadIn is(payload);
    std::shared_ptr<const EvalKeys> keys = deserializeEvalKeys(is);
    expectFullyConsumed(is);
    return keys;
}

} // namespace strix
