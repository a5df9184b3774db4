/**
 * @file
 * Binary serialization for TFHE material.
 *
 * A TFHE deployment is client/server: the client keeps the secret
 * keys and ships ciphertexts plus the (public) bootstrapping and
 * keyswitching keys to the server. This module provides a compact,
 * versioned, little-endian binary format for exactly what travels:
 * parameter sets, LWE ciphertexts, torus polynomials (test vectors)
 * and evaluation-key bundles. It is built on a small
 * FrameWriter/FrameReader layer (frame header = type tag + version;
 * version-2 frames add length-checked sections). Secret keys have no
 * frame: they never leave the client.
 *
 * Evaluation keys travel in one format, the seeded `EVK2` frame
 * (`BSK2` + `KSK2` inside). Mask components are pure PRNG output
 * regenerable from a shipped 64-bit seed (Rng::fork per row), so the
 * frame carries only seeds + body components: ~1/(k+1) of the BSK and
 * ~1/(n+1) of the KSK, about a third of the resident expanded size
 * (EvalKeys::residentBytes) at paper set I. deserializeEvalKeys()
 * re-expands the masks deterministically; the rebuilt bundle is
 * bit-identical to the directly generated one (same process / same
 * FFT kernel).
 */

#ifndef STRIX_TFHE_SERIALIZE_H
#define STRIX_TFHE_SERIALIZE_H

#include <cstdint>
#include <iosfwd>
#include <memory>

#include "common/frame.h"
#include "tfhe/eval_keys.h"
#include "tfhe/lwe.h"
#include "tfhe/params.h"

namespace strix {

/** Format version of the params, ciphertext and polynomial frames. */
inline constexpr uint32_t kSerializeVersion = 1;

/** Format version of the seeded key frames. */
inline constexpr uint32_t kSerializeVersionSeeded = 2;

/** Frame type tags. */
enum class SerialTag : uint32_t
{
    Params = 0x50415230,             // "PAR0"
    LweCiphertext = 0x4C435431,      // "LCT1"
    TorusPoly = 0x54504C59,          // "TPLY"
    SeededKeySwitchKey = 0x4B534B32, // "KSK2"
    SeededBootstrapKey = 0x42534B32, // "BSK2"
    SeededEvalKeys = 0x45564B32,     // "EVK2"
};

// FrameWriter/FrameReader (the byte layer these formats are built on)
// live in common/frame.h; the enum-tag constructor overloads accept
// SerialTag values directly.

/** Serialization format selector for EvalKeys bundles. */
enum class EvalKeysFormat
{
    Seeded, //!< `EVK2`: mask seeds + body components (compressed)
};

// --- writers ---------------------------------------------------------
void serialize(std::ostream &os, const TfheParams &p);
void serialize(std::ostream &os, const LweCiphertext &ct);
void serialize(std::ostream &os, const TorusPolynomial &poly);
/**
 * One `EVK2` frame bundling params + BSK2 + KSK2: the shippable
 * server keyset.
 */
void serialize(std::ostream &os, const EvalKeys &keys,
               EvalKeysFormat format);

// --- readers (throw std::runtime_error on malformed input) -----------
TfheParams deserializeParams(std::istream &is);
LweCiphertext deserializeLweCiphertext(std::istream &is);
TorusPolynomial deserializeTorusPolynomial(std::istream &is);
/**
 * Read an `EVK2` bundle: every mask re-expands from the shipped seeds
 * (bit-identical to the bundle the seeds came from) and the seeds are
 * kept, so the result re-serializes byte-exactly. BSK/KSK shapes are
 * cross-validated against the embedded parameter frame and gadgets
 * against the decomposer's domain (mismatches throw rather than
 * yielding a bundle that silently evaluates garbage or aborts on
 * first use). The whole frame is read and checked first; the masks
 * then re-expand by BSK bit and KSK row block on a ThreadPool of the
 * default size (STRIX_THREADS) that lives for the call, the same bits
 * at any lane count. Returned behind shared_ptr, ready to hand to any
 * number of ServerContexts.
 */
std::shared_ptr<const EvalKeys> deserializeEvalKeys(std::istream &is);

} // namespace strix

#endif // STRIX_TFHE_SERIALIZE_H
