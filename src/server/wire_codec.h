/**
 * @file
 * Payload codec for the MSG1 request/reply types.
 *
 * net/ moves opaque bytes; this module gives those bytes TFHE
 * meaning. Each request payload is built from the hardened
 * serialize.h frames (LCT1/TPLY/EVK2) plus small typed headers
 * framed the same way, so every decoder below validates hostile
 * input with the same length-checked readers the file formats use:
 * malformed payloads throw std::runtime_error, never crash. The
 * daemon decodes requests and encodes replies; clients (the example,
 * the bench, the tests) do the reverse with the same functions --
 * one codec TU keeps the two sides byte-compatible by construction.
 *
 * This lives in server/ (not net/) because it speaks TFHE types;
 * the lint layering keeps net/ below tfhe/.
 */

#ifndef STRIX_SERVER_WIRE_CODEC_H
#define STRIX_SERVER_WIRE_CODEC_H

#include <cstdint>
#include <memory>
#include <vector>

#include "tfhe/serialize.h"
#include "workloads/circuit.h"

namespace strix {

// --- caps enforced by the decoders (hostile-input bounds) ------------

/** Max LUT message space accepted by ApplyLut (tables stay tiny). */
inline constexpr uint64_t kMaxLutMsgSpace = 4096;
/** Max netlist nodes accepted by EvalCircuit. */
inline constexpr uint64_t kMaxCircuitNodes = 1u << 20;
/** Max ciphertexts in one request or reply. */
inline constexpr uint64_t kMaxWireCiphertexts = 1u << 16;

// --- Bootstrap -------------------------------------------------------

/** Decoded Bootstrap request: raw PBS of ct against a test vector. */
struct BootstrapRequest
{
    LweCiphertext ct;
    TorusPolynomial tv;
};

std::vector<uint8_t> encodeBootstrapPayload(const LweCiphertext &ct,
                                            const TorusPolynomial &tv);
BootstrapRequest
decodeBootstrapPayload(const std::vector<uint8_t> &payload);

// --- ApplyLut --------------------------------------------------------

/** Decoded ApplyLut request: tabulated f over Z_msg_space. */
struct ApplyLutRequest
{
    LweCiphertext ct;
    uint64_t msg_space = 0;
    std::vector<int64_t> table; //!< msg_space entries, f(0..msg_space)
};

std::vector<uint8_t>
encodeApplyLutPayload(const LweCiphertext &ct, uint64_t msg_space,
                      const std::vector<int64_t> &table);
ApplyLutRequest
decodeApplyLutPayload(const std::vector<uint8_t> &payload);

// --- EvalCircuit -----------------------------------------------------

/** Decoded EvalCircuit request: netlist + encrypted inputs. */
struct CircuitRequest
{
    Circuit circuit;
    std::vector<LweCiphertext> inputs;
};

std::vector<uint8_t>
encodeCircuitPayload(const Circuit &circuit,
                     const std::vector<LweCiphertext> &inputs);
CircuitRequest
decodeCircuitPayload(const std::vector<uint8_t> &payload);

// --- ciphertext vectors (Ok reply payloads) --------------------------

std::vector<uint8_t>
encodeCiphertexts(const std::vector<LweCiphertext> &cts);
std::vector<LweCiphertext>
decodeCiphertexts(const std::vector<uint8_t> &payload);

// --- RegisterTenant --------------------------------------------------

/** The EVK2 frame bytes of @p keys (what RegisterTenant ships). */
std::vector<uint8_t> encodeEvalKeysPayload(const EvalKeys &keys,
                                           EvalKeysFormat format);
/**
 * Deserialize an uploaded EVK2 bundle (the hardened reader: any other
 * tag, a shape that disagrees with the params frame, or a gadget the
 * decomposer cannot run throws).
 */
std::shared_ptr<const EvalKeys>
decodeEvalKeysPayload(const std::vector<uint8_t> &payload);

} // namespace strix

#endif // STRIX_SERVER_WIRE_CODEC_H
