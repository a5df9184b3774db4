/**
 * @file
 * PBS implementation.
 */

#include "tfhe/bootstrap.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"

namespace strix {

namespace {

/**
 * Key bits per fan-out of generateSeeded. A block's noise, 16 x
 * (k+1)*l*N values (256 KiB at set I), is drawn before the lanes
 * encrypt its bits.
 */
constexpr uint32_t kBitsPerBlock = 16;

/** One expansion worker's time-domain GLWE row and product scratch. */
struct RowScratch
{
    RowScratch(uint32_t k, uint32_t big_n) : row(k, big_n), keys(big_n) {}

    GlweCiphertext row;
    GlweKeyScratch keys;
};

/** Worker slots of parallelFor(@p pool, ...). */
size_t
workerSlots(const ThreadPool *pool)
{
    return pool != nullptr ? pool->lanes() + 1 : 1;
}

} // namespace

BootstrappingKey
BootstrappingKey::generateSeeded(const LweKey &lwe_key,
                                 const GlweKey &glwe_key,
                                 const TfheParams &params,
                                 uint64_t mask_seed, Rng &noise_rng,
                                 ThreadPool *pool)
{
    panicIfNot(lwe_key.dim() == params.n, "bsk: LWE key dim mismatch");
    panicIfNot(glwe_key.k() == params.k &&
                   glwe_key.ringDim() == params.N,
               "bsk: GLWE key shape mismatch");

    const uint32_t k = params.k;
    const uint32_t big_n = params.N;
    const GadgetParams g{params.bg_bits, params.l_bsk};
    const uint32_t rows_per_bit = (k + 1) * g.levels;
    // The calling thread allocates every key row, so the lanes only
    // fill memory and no row lands in a lane thread's malloc arena.
    std::vector<std::vector<FreqPolynomial>> rows(
        params.n, std::vector<FreqPolynomial>(size_t(rows_per_bit) * (k + 1),
                                              FreqPolynomial(big_n / 2)));
    std::vector<RowScratch> scratch(workerSlots(pool), RowScratch(k, big_n));
    const size_t noise_per_bit = size_t(rows_per_bit) * big_n;
    std::vector<Torus32> noise(kBitsPerBlock * noise_per_bit);
    const auto &eng = NegacyclicFft::get(big_n);
    const Rng mask_root(mask_seed);
    for (uint32_t first = 0; first < params.n; first += kBitsPerBlock) {
        const uint32_t count = std::min(kBitsPerBlock, params.n - first);
        // One noise stream in bit, row, coefficient order, drawn here
        // whatever the lanes: the key is the same bits at any lane
        // count.
        for (size_t j = 0; j < count * noise_per_bit; ++j)
            noise[j] = noise_rng.gaussianTorus32(params.glwe_noise);
        parallelFor(pool, count, [&](size_t b, unsigned worker) {
            const uint32_t i = first + static_cast<uint32_t>(b);
            RowScratch &s = scratch[worker];
            for (uint32_t r = 0; r < rows_per_bit; ++r) {
                Rng mask_rng =
                    mask_root.fork(uint64_t(i) * rows_per_bit + r);
                ggswEncryptSeededRow(s.row, glwe_key, lwe_key.bit(i), g,
                                     r, mask_rng,
                                     noise.data() + b * noise_per_bit +
                                         size_t(r) * big_n,
                                     s.keys);
                for (uint32_t c = 0; c <= k; ++c)
                    eng.forward(rows[i][r * (k + 1) + c], s.row.poly(c));
            }
        });
    }
    BootstrappingKey bsk;
    bsk.params_ = params;
    bsk.ggsw_fft_.reserve(params.n);
    for (auto &bit : rows)
        bsk.ggsw_fft_.push_back(
            GgswFft::fromRawRows(k, big_n, g, std::move(bit)));
    return bsk;
}

BootstrappingKey
BootstrappingKey::fromSeededBodies(const TfheParams &params,
                                   uint64_t mask_seed,
                                   std::vector<FreqPolynomial> freq_bodies,
                                   ThreadPool *pool)
{
    const uint32_t k = params.k;
    const uint32_t big_n = params.N;
    const GadgetParams g{params.bg_bits, params.l_bsk};
    const size_t rows_per_bit = size_t(k + 1) * g.levels;
    panicIfNot(freq_bodies.size() == size_t(params.n) * rows_per_bit,
               "bsk fromSeededBodies: body count mismatch");

    // The calling thread allocates the mask rows and moves the bodies
    // in; the lanes only fill the masks.
    std::vector<std::vector<FreqPolynomial>> rows(params.n);
    for (uint32_t i = 0; i < params.n; ++i) {
        rows[i].resize(rows_per_bit * (k + 1));
        for (size_t r = 0; r < rows_per_bit; ++r) {
            for (uint32_t c = 0; c < k; ++c)
                rows[i][r * (k + 1) + c].resize(big_n / 2);
            FreqPolynomial &body = freq_bodies[i * rows_per_bit + r];
            panicIfNot(body.size() == size_t(big_n) / 2,
                       "bsk fromSeededBodies: body size mismatch");
            rows[i][r * (k + 1) + k] = std::move(body);
        }
    }
    std::vector<GlweCiphertext> scratch(workerSlots(pool),
                                        GlweCiphertext(k, big_n));
    const auto &eng = NegacyclicFft::get(big_n);
    const Rng mask_root(mask_seed);
    parallelFor(pool, params.n, [&](size_t i, unsigned worker) {
        GlweCiphertext &mask = scratch[worker];
        for (size_t r = 0; r < rows_per_bit; ++r) {
            // Identical fork id and draw order as generateSeeded,
            // identical per-polynomial forward transform: the
            // regenerated mask columns are bit-identical to the
            // generated key's.
            Rng mask_rng = mask_root.fork(uint64_t(i) * rows_per_bit + r);
            glweFillMask(mask, mask_rng);
            for (uint32_t c = 0; c < k; ++c)
                eng.forward(rows[i][r * (k + 1) + c], mask.poly(c));
        }
    });
    BootstrappingKey bsk;
    bsk.params_ = params;
    bsk.ggsw_fft_.reserve(params.n);
    for (auto &bit : rows)
        bsk.ggsw_fft_.push_back(
            GgswFft::fromRawRows(k, big_n, g, std::move(bit)));
    return bsk;
}

ModSwitch::ModSwitch(uint32_t big_n)
{
    panicIfNot(big_n != 0 && (big_n & (big_n - 1)) == 0,
               "modulus switch: ring dim must be a power of two");
    // log2(2N) <= 32; the loop terminates because 2N is a power of
    // two (the panic above rules everything else out).
    uint32_t log_2n = 1;
    while ((static_cast<uint64_t>(big_n) << 1) >> log_2n != 1)
        ++log_2n;
    shift_ = kTorus32Bits - log_2n;
    mask_ = static_cast<uint32_t>((static_cast<uint64_t>(big_n) << 1) - 1);
    // Round-half-up bias of half a grid step. When 2N = 2^32 the grid
    // is the torus itself: no rounding, and a bias of 1 << (shift-1)
    // would have been the old code's shift-by-minus-one underflow.
    bias_ = shift_ == 0 ? 0 : uint64_t{1} << (shift_ - 1);
}

uint32_t
modulusSwitch(Torus32 a, uint32_t big_n)
{
    return ModSwitch(big_n)(a);
}

void
blindRotateInit(GlweCiphertext *accs, const LweCiphertext *cts,
                size_t count, const BootstrappingKey &bsk,
                PbsScratch &scratch)
{
    const TfheParams &p = bsk.params();
    const uint32_t two_n = 2 * p.N;
    const ModSwitch ms(p.N);

    // Initial rotation by -b~ (Algorithm 1, line 4), into the scratch
    // GLWE; the swap hands the old accumulator's storage back to
    // scratch, so no rotation allocates.
    GlweCiphertext &rotated = scratch.rotated;
    if (rotated.k() != p.k || rotated.ringDim() != p.N)
        rotated = GlweCiphertext(p.k, p.N);
    for (size_t b = 0; b < count; ++b) {
        panicIfNot(cts[b].dim() == p.n,
                   "blindRotate: ciphertext dim mismatch");
        panicIfNot(accs[b].k() == p.k && accs[b].ringDim() == p.N,
                   "blindRotate: accumulator shape mismatch");
        const uint32_t b_tilde = ms(cts[b].b());
        if (b_tilde == 0)
            continue;
        for (uint32_t c = 0; c <= p.k; ++c)
            negacyclicRotate(rotated.poly(c), accs[b].poly(c),
                             two_n - b_tilde);
        std::swap(accs[b], rotated);
    }
}

void
blindRotate(GlweCiphertext &acc, const LweCiphertext &ct,
            const BootstrappingKey &bsk, PbsScratch &scratch)
{
    blindRotateInit(&acc, &ct, 1, bsk, scratch);
    const CmuxSteps steps(bsk, &acc, &ct, 1);
    for (uint64_t s = steps.next(0); s < steps.end(); s = steps.next(s))
        steps.run(s, scratch);
}

LweCiphertext
programmableBootstrap(const LweCiphertext &ct,
                      const TorusPolynomial &test_vector,
                      const BootstrappingKey &bsk, PbsScratch &scratch)
{
    const TfheParams &p = bsk.params();
    panicIfNot(test_vector.size() == p.N, "PBS: test vector size mismatch");
    GlweCiphertext acc = GlweCiphertext::trivial(p.k, test_vector);
    blindRotate(acc, ct, bsk, scratch);
    return sampleExtract(acc, 0);
}

LweCiphertext
programmableBootstrap(const LweCiphertext &ct,
                      const TorusPolynomial &test_vector,
                      const BootstrappingKey &bsk)
{
    PbsScratch scratch;
    return programmableBootstrap(ct, test_vector, bsk, scratch);
}

Torus32
encodeLut(int64_t m, uint64_t msg_space)
{
    // (2m+1) / (4p). Reduce m mod 2p first: 2m+1 overflows int64_t
    // for |m| beyond 2^62, and (2r+1) == (2m+1) mod 4p, so every
    // non-overflowing m encodes exactly as before.
    const int64_t r = m % static_cast<int64_t>(2 * msg_space);
    return encodeMessage(2 * r + 1, 4 * msg_space);
}

int64_t
decodeLut(Torus32 phase, uint64_t msg_space)
{
    // floor(phase * 2p) over the positive half-torus.
    unsigned __int128 num =
        static_cast<unsigned __int128>(phase) * (2 * msg_space);
    return static_cast<int64_t>(static_cast<uint64_t>(num >> 32) %
                                msg_space);
}

TorusPolynomial
makeTestVector(uint32_t big_n, uint64_t msg_space,
               const std::function<Torus32(int64_t)> &f)
{
    panicIfNot(msg_space <= big_n, "LUT larger than polynomial degree");
    TorusPolynomial tv(big_n);
    for (uint32_t j = 0; j < big_n; ++j) {
        auto m = static_cast<int64_t>(
            (static_cast<uint64_t>(j) * msg_space) / big_n);
        tv[j] = f(m);
    }
    return tv;
}

TorusPolynomial
makeIntTestVector(uint32_t big_n, uint64_t msg_space,
                  const std::function<int64_t(int64_t)> &f)
{
    return makeTestVector(big_n, msg_space, [&](int64_t m) {
        return encodeLut(f(m), msg_space);
    });
}

} // namespace strix
