/**
 * @file
 * ServerContext implementation.
 */

#include "tfhe/server_context.h"

#include <algorithm>

#include "common/logging.h"
#include "poly/negacyclic_fft.h"

namespace strix {

namespace {

const TfheParams &
checkedParams(const std::shared_ptr<const EvalKeys> &keys)
{
    panicIfNot(keys != nullptr, "ServerContext: null EvalKeys bundle");
    return keys->params();
}

} // namespace

void
bootstrapKeySwitch(const EvalKeys &keys, const LweCiphertext *cts,
                   const TorusPolynomial *const *tvs, size_t count,
                   LweCiphertext *out, PbsScratch &scratch)
{
    const TfheParams &p = keys.params();
    std::vector<GlweCiphertext> &accs = scratch.accs;
    if (accs.size() < count)
        accs.resize(count);
    for (size_t b = 0; b < count; ++b) {
        panicIfNot(tvs[b]->size() == p.N, "PBS: test vector size mismatch");
        // The trivial GLWE of the test vector, in place.
        GlweCiphertext &acc = accs[b];
        if (acc.k() != p.k || acc.ringDim() != p.N)
            acc = GlweCiphertext(p.k, p.N);
        for (uint32_t c = 0; c < p.k; ++c)
            acc.poly(c).clear();
        acc.body() = *tvs[b];
    }
    blindRotate(accs.data(), cts, count, keys.bsk(), scratch);
    std::vector<LweCiphertext> big;
    big.reserve(count);
    for (size_t b = 0; b < count; ++b)
        big.push_back(sampleExtract(accs[b], 0));
    keySwitch(out, big.data(), count, keys.ksk());
}

ServerContext::FftPrewarm::FftPrewarm(const TfheParams &p)
{
    NegacyclicFft::prewarm(p.N);
}

ServerContext::ServerContext(std::shared_ptr<const EvalKeys> keys,
                             unsigned threads)
    : keys_(std::move(keys)), fft_prewarm_(checkedParams(keys_)),
      threads_(threads)
{
}

LweCiphertext
ServerContext::bootstrap(const LweCiphertext &ct,
                         const TorusPolynomial &test_vector) const
{
    PbsScratch scratch;
    const TorusPolynomial *tv = &test_vector;
    LweCiphertext out;
    bootstrapKeySwitch(*keys_, &ct, &tv, 1, &out, scratch);
    return out;
}

LweCiphertext
ServerContext::applyLut(const LweCiphertext &ct, uint64_t msg_space,
                        const std::function<int64_t(int64_t)> &f) const
{
    TorusPolynomial tv = makeIntTestVector(params().N, msg_space, f);
    return bootstrap(ct, tv);
}

std::vector<LweCiphertext>
ServerContext::bootstrapBatch(const LweCiphertext *cts, size_t count,
                              const TorusPolynomial &test_vector) const
{
    const std::vector<const TorusPolynomial *> tvs(count, &test_vector);
    return bootstrapBatch(cts, tvs.data(), count);
}

std::vector<LweCiphertext>
ServerContext::bootstrapBatch(const std::vector<LweCiphertext> &cts,
                              const TorusPolynomial &test_vector) const
{
    return bootstrapBatch(cts.data(), cts.size(), test_vector);
}

std::vector<LweCiphertext>
ServerContext::bootstrapBatch(const LweCiphertext *cts,
                              const TorusPolynomial *const *tvs,
                              size_t count) const
{
    for (size_t i = 0; i < count; ++i)
        panicIfNot(tvs[i] != nullptr,
                   "bootstrapBatch: null test-vector pointer");
    std::call_once(pool_once_,
                   [this] { pool_ = std::make_unique<ThreadPool>(threads_); });
    std::vector<LweCiphertext> out(count);
    if (count == 0)
        return out;
    // Key-stationary epochs: split the batch into one sub-batch per
    // worker, each run as one epoch of width B, so every GGSW and KSK
    // row a worker reads serves B ciphertexts.
    const size_t workers = std::min<size_t>(count, pool_->lanes());
    const size_t width = (count + workers - 1) / workers;
    const size_t epochs = (count + width - 1) / width;
    // One scratch per worker (the caller, then one per lane): blind
    // rotation allocates nothing and shares nothing, so workers never
    // touch common mutable state. Scratch a worker never uses stays
    // unallocated.
    std::vector<PbsScratch> scratch(pool_->lanes() + 1);
    pool_->parallelFor(epochs, [&](size_t e, unsigned worker) {
        const size_t first = e * width;
        bootstrapKeySwitch(*keys_, cts + first, tvs + first,
                           std::min(width, count - first),
                           out.data() + first, scratch[worker]);
    });
    return out;
}

std::vector<LweCiphertext>
ServerContext::applyLutBatch(const std::vector<LweCiphertext> &cts,
                             uint64_t msg_space,
                             const std::function<int64_t(int64_t)> &f) const
{
    TorusPolynomial tv = makeIntTestVector(params().N, msg_space, f);
    return bootstrapBatch(cts, tv);
}

} // namespace strix
