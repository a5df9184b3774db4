/**
 * @file
 * ServerContext implementation.
 */

#include "tfhe/server_context.h"

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

LweCiphertext
bootstrapKeySwitch(const EvalKeys &keys, const LweCiphertext &ct,
                   const TorusPolynomial &test_vector, PbsScratch &scratch)
{
    LweCiphertext big =
        programmableBootstrap(ct, test_vector, keys.bsk(), scratch);
    return keySwitch(big, keys.ksk());
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
    return bootstrapKeySwitch(*keys_, ct, test_vector, scratch);
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
    // One scratch per worker (the caller, then one per lane): blind
    // rotation allocates nothing and shares nothing, so workers never
    // touch common mutable state. Scratch a worker never uses stays
    // unallocated.
    std::vector<PbsScratch> scratch(pool_->lanes() + 1);
    pool_->parallelFor(count, [&](size_t i, unsigned worker) {
        out[i] = bootstrapKeySwitch(*keys_, cts[i], *tvs[i],
                                    scratch[worker]);
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
