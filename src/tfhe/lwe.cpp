/**
 * @file
 * LWE implementation.
 */

#include "tfhe/lwe.h"

#include "common/logging.h"

namespace strix {

LweKey::LweKey(uint32_t n, Rng &rng)
{
    bits_.resize(n);
    for (auto &b : bits_)
        b = rng.uniformBit();
}

void
LweCiphertext::addAssign(const LweCiphertext &other)
{
    panicIfNot(data_.size() == other.data_.size(), "LWE dim mismatch");
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
}

void
LweCiphertext::subAssign(const LweCiphertext &other)
{
    panicIfNot(data_.size() == other.data_.size(), "LWE dim mismatch");
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] -= other.data_[i];
}

void
LweCiphertext::scalarMulAssign(int32_t factor)
{
    for (auto &v : data_)
        v = static_cast<Torus32>(
            static_cast<uint32_t>(factor) * v);
}

void
LweCiphertext::negate()
{
    for (auto &v : data_)
        v = 0u - v;
}

LweCiphertext
LweCiphertext::trivial(uint32_t n, Torus32 mu)
{
    LweCiphertext ct(n);
    ct.b() = mu;
    return ct;
}

LweCiphertext
lweEncrypt(const LweKey &key, Torus32 mu, double stddev, Rng &rng)
{
    LweCiphertext ct(key.dim());
    Torus32 dot = 0;
    for (uint32_t i = 0; i < key.dim(); ++i) {
        ct.a(i) = rng.uniformTorus32();
        if (key.bit(i))
            dot += ct.a(i);
    }
    ct.b() = dot + mu + rng.gaussianTorus32(stddev);
    return ct;
}

void
lweFillMask(LweCiphertext &ct, Rng &mask_rng)
{
    for (uint32_t i = 0; i < ct.dim(); ++i)
        ct.a(i) = mask_rng.uniformTorus32();
}

void
lweEncryptSeeded(LweCiphertext &ct, const LweKey &key, Torus32 mu,
                 Rng &mask_rng, Torus32 noise)
{
    panicIfNot(ct.dim() == key.dim(), "lweEncryptSeeded: dim mismatch");
    lweFillMask(ct, mask_rng);
    Torus32 dot = 0;
    for (uint32_t i = 0; i < key.dim(); ++i)
        if (key.bit(i))
            dot += ct.a(i);
    ct.b() = dot + mu + noise;
}

Torus32
lwePhase(const LweKey &key, const LweCiphertext &ct)
{
    panicIfNot(key.dim() == ct.dim(), "LWE key/ct dim mismatch");
    Torus32 dot = 0;
    for (uint32_t i = 0; i < key.dim(); ++i)
        if (key.bit(i))
            dot += ct.a(i);
    return ct.b() - dot;
}

int64_t
lweDecrypt(const LweKey &key, const LweCiphertext &ct, uint64_t msg_space)
{
    return decodeMessage(lwePhase(key, ct), msg_space);
}

} // namespace strix
