/**
 * @file
 * LWE ciphertexts and keys.
 *
 * An LWE ciphertext under key s in {0,1}^n encrypting message mu in T:
 *     (a_1..a_n, b),  b = <a, s> + mu + e.
 * Matching the paper's data-structure description (Sec. II-D), the
 * ciphertext is a flat vector of n+1 Torus32 scalars with the body b
 * stored at index n.
 */

#ifndef STRIX_TFHE_LWE_H
#define STRIX_TFHE_LWE_H

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/types.h"

namespace strix {

/** Binary LWE secret key of dimension n. */
class LweKey
{
  public:
    LweKey() = default;

    /** Sample a uniform binary key of dimension @p n. */
    LweKey(uint32_t n, Rng &rng);

    /** Build from explicit bits (used by sample extraction). */
    explicit LweKey(std::vector<int32_t> bits) : bits_(std::move(bits)) {}

    uint32_t dim() const { return static_cast<uint32_t>(bits_.size()); }
    int32_t bit(size_t i) const { return bits_[i]; }
    const std::vector<int32_t> &bits() const { return bits_; }

  private:
    std::vector<int32_t> bits_;
};

/** LWE ciphertext: n mask scalars followed by the body. */
class LweCiphertext
{
  public:
    LweCiphertext() = default;
    explicit LweCiphertext(uint32_t n) : data_(n + 1, 0) {}

    uint32_t dim() const { return static_cast<uint32_t>(data_.size()) - 1; }

    Torus32 &a(size_t i) { return data_[i]; }
    Torus32 a(size_t i) const { return data_[i]; }
    Torus32 &b() { return data_.back(); }
    Torus32 b() const { return data_.back(); }

    /** Raw n+1 scalar view (mask then body), as in Algorithm 1. */
    std::vector<Torus32> &raw() { return data_; }
    const std::vector<Torus32> &raw() const { return data_; }

    /** this += other. */
    void addAssign(const LweCiphertext &other);
    /** this -= other. */
    void subAssign(const LweCiphertext &other);
    /** this *= integer factor. */
    void scalarMulAssign(int32_t factor);
    /** Negate (homomorphic NOT for centered encodings). */
    void negate();

    /** Noiseless encryption of a constant (a = 0, b = mu). */
    static LweCiphertext trivial(uint32_t n, Torus32 mu);

  private:
    std::vector<Torus32> data_;
};

/** Encrypt torus message @p mu under @p key with noise @p stddev. */
LweCiphertext lweEncrypt(const LweKey &key, Torus32 mu, double stddev,
                         Rng &rng);

/** Fill the @p n mask scalars of @p ct from @p mask_rng (n draws). */
void lweFillMask(LweCiphertext &ct, Rng &mask_rng);

/**
 * Encrypt into @p ct (of the key's dimension) with the mask drawn from
 * @p mask_rng and the noise value @p noise given. With the mask stream
 * forked from a shippable seed (Rng::fork), the mask scalars are pure
 * PRNG output any holder of the seed regenerates via lweFillMask --
 * only the body must travel, which is what the seeded KSK2 frame
 * exploits. Bitwise identical to lweEncrypt when @p mask_rng sits at
 * the same position and @p noise is its next noise draw. Allocates
 * nothing.
 */
void lweEncryptSeeded(LweCiphertext &ct, const LweKey &key, Torus32 mu,
                      Rng &mask_rng, Torus32 noise);

/** Decrypt to the raw phase b - <a, s> (message + noise). */
Torus32 lwePhase(const LweKey &key, const LweCiphertext &ct);

/**
 * Decrypt and decode to an integer message in [0, msg_space), rounding
 * the phase to the nearest encoding.
 */
int64_t lweDecrypt(const LweKey &key, const LweCiphertext &ct,
                   uint64_t msg_space);

} // namespace strix

#endif // STRIX_TFHE_LWE_H
