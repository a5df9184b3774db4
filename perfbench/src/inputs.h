/**
 * @file
 * Seeded workload inputs.
 *
 * Everything a workload feeds the program is made here from the run
 * seed: LUT tables, messages and their encryptions, circuit inputs
 * and the churn upload order. The program only ever
 * receives the generated payloads; the expected cleartext results stay
 * with the benchmark, which checks every reply against them.
 */
#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <vector>

#include "net/wire.h"
#include "tfhe/client_keyset.h"
#include "workloads/circuit.h"

namespace perfbench {

/**
 * LUT message space. Parameter set I decodes reliably up to 16
 * messages (modulus-switch noise margin); 8 leaves headroom.
 */
inline constexpr uint64_t kMsgSpace = 8;

/** One in-process PBS input: ciphertext, its own LUT, expected value. */
struct SweepItem
{
    strix::LweCiphertext ct;
    strix::TorusPolynomial tv;
    int64_t expect = 0;
};

/** One pre-encoded Bootstrap or ApplyLut request. */
struct ServeRequest
{
    strix::MsgType type = strix::MsgType::Bootstrap;
    std::vector<uint8_t> payload;
    int64_t expect = 0;
};

/** One pre-encoded EvalCircuit request. */
struct CircuitItem
{
    std::vector<strix::LweCiphertext> inputs;
    std::vector<uint8_t> payload;
    std::vector<bool> expect; //!< Circuit::evalPlain of the inputs
};

/** @p count PBS inputs, each with a seeded message and LUT. */
std::vector<SweepItem> makeSweepPool(const strix::ClientKeyset &keys,
                                     uint64_t seed, size_t count);

/**
 * @p count requests alternating Bootstrap (seeded test vector) and
 * ApplyLut (seeded table), with seeded messages.
 */
std::vector<ServeRequest> makeServePool(const strix::ClientKeyset &keys,
                                        uint64_t seed, size_t count);

/** @p count evaluations of @p circuit on seeded input bits. */
std::vector<CircuitItem> makeCircuitPool(const strix::Circuit &circuit,
                                         const strix::ClientKeyset &keys,
                                         uint64_t seed, size_t count);

/**
 * Order in which @p uploads churn registrations pick among @p keysets
 * distinct bundles: a seeded rotation that visits every keyset before
 * repeating one, so an upload never repeats a recent bundle.
 */
std::vector<uint32_t> makeChurnOrder(uint64_t seed, size_t uploads,
                                     uint32_t keysets);

/** Digests over generated inputs (for the determinism tests). */
uint64_t digest(const std::vector<ServeRequest> &pool);
uint64_t digest(const std::vector<CircuitItem> &pool);
uint64_t digest(const std::vector<SweepItem> &pool);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
