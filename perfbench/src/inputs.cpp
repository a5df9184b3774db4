#include "inputs.h"

#include "common/random.h"
#include "server/wire_codec.h"
#include "tfhe/bootstrap.h"
#include "util.h"

using namespace strix;

namespace perfbench {

namespace {

std::vector<int64_t>
randomTable(Rng &rng)
{
    std::vector<int64_t> t(kMsgSpace);
    for (int64_t &v : t)
        v = int64_t(rng.uniformBelow(kMsgSpace));
    return t;
}

TorusPolynomial
tableTestVector(uint32_t big_n, const std::vector<int64_t> &t)
{
    return makeIntTestVector(big_n, kMsgSpace, [&t](int64_t v) {
        return t[size_t(v) % t.size()];
    });
}

} // namespace

std::vector<SweepItem>
makeSweepPool(const ClientKeyset &keys, uint64_t seed, size_t count)
{
    Rng rng(seed);
    std::vector<SweepItem> out(count);
    for (SweepItem &it : out) {
        const int64_t m = int64_t(rng.uniformBelow(kMsgSpace));
        const std::vector<int64_t> t = randomTable(rng);
        it.ct = keys.encryptInt(m, kMsgSpace, rng);
        it.tv = tableTestVector(keys.params().N, t);
        it.expect = t[size_t(m)];
    }
    return out;
}

std::vector<ServeRequest>
makeServePool(const ClientKeyset &keys, uint64_t seed, size_t count)
{
    Rng rng(seed);
    std::vector<ServeRequest> out(count);
    for (size_t i = 0; i < count; ++i) {
        ServeRequest &r = out[i];
        const int64_t m = int64_t(rng.uniformBelow(kMsgSpace));
        const std::vector<int64_t> t = randomTable(rng);
        const LweCiphertext ct = keys.encryptInt(m, kMsgSpace, rng);
        r.expect = t[size_t(m)];
        if (i % 2 == 0) {
            r.type = MsgType::Bootstrap;
            r.payload = encodeBootstrapPayload(
                ct, tableTestVector(keys.params().N, t));
        } else {
            r.type = MsgType::ApplyLut;
            r.payload = encodeApplyLutPayload(ct, kMsgSpace, t);
        }
    }
    return out;
}

std::vector<CircuitItem>
makeCircuitPool(const Circuit &circuit, const ClientKeyset &keys,
                uint64_t seed, size_t count)
{
    Rng rng(seed);
    std::vector<CircuitItem> out(count);
    for (CircuitItem &it : out) {
        std::vector<bool> bits(circuit.numInputs());
        for (size_t b = 0; b < bits.size(); ++b)
            bits[b] = rng.uniformBit() != 0;
        for (bool bit : bits)
            it.inputs.push_back(keys.encryptBit(bit, rng));
        it.expect = circuit.evalPlain(bits);
        it.payload = encodeCircuitPayload(circuit, it.inputs);
    }
    return out;
}

std::vector<uint32_t>
makeChurnOrder(uint64_t seed, size_t uploads, uint32_t keysets)
{
    Rng rng(seed);
    const uint32_t start = uint32_t(rng.uniformBelow(keysets));
    const bool backwards = rng.uniformBit() != 0;
    std::vector<uint32_t> out(uploads);
    for (size_t k = 0; k < uploads; ++k) {
        const uint32_t step = uint32_t(k % keysets);
        out[k] = backwards ? (start + keysets - step) % keysets
                           : (start + step) % keysets;
    }
    return out;
}

uint64_t
digest(const std::vector<ServeRequest> &pool)
{
    uint64_t h = fnv1a(nullptr, 0);
    for (const ServeRequest &r : pool) {
        const uint32_t type = uint32_t(r.type);
        h = fnv1a(&type, sizeof type, h);
        h = fnv1a(r.payload.data(), r.payload.size(), h);
        h = fnv1a(&r.expect, sizeof r.expect, h);
    }
    return h;
}

uint64_t
digest(const std::vector<CircuitItem> &pool)
{
    uint64_t h = fnv1a(nullptr, 0);
    for (const CircuitItem &it : pool) {
        h = fnv1a(it.payload.data(), it.payload.size(), h);
        for (bool b : it.expect) {
            const char c = b ? 1 : 0;
            h = fnv1a(&c, 1, h);
        }
    }
    return h;
}

uint64_t
digest(const std::vector<SweepItem> &pool)
{
    uint64_t h = fnv1a(nullptr, 0);
    for (const SweepItem &it : pool) {
        h = fnv1a(it.ct.raw().data(), it.ct.raw().size() * sizeof(Torus32),
                  h);
        h = fnv1a(it.tv.data(), it.tv.size() * sizeof(Torus32), h);
        h = fnv1a(&it.expect, sizeof it.expect, h);
    }
    return h;
}

} // namespace perfbench
