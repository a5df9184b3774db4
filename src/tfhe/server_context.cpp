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

/**
 * One epoch as a sequence of steps that an owner and, while one is
 * attached, a partner lane split between them. The CmuxSteps come
 * first, each run only when its a~ is nonzero; then the owner
 * sample-extracts (extractStep()), both lanes keyswitch a block of
 * input coefficients (keySwitchStep()), and the owner adds the
 * partner's partials (sumStep()). Side 0, the owner, takes the even
 * GLWE components and columns, side 1 the odd ones. The partner holds
 * the epoch by shared_ptr, so what lives here stays valid for it while
 * a failed owner unwinds; the owner's scratch and inputs, which the
 * epoch only points to, are kept for it by LanePair::close.
 */
struct PairedEpoch
{
    PairedEpoch(const EvalKeys &k, const LweCiphertext *cts, size_t n,
                GlweCiphertext *accs, Cplx *sp, PartnerLanes *l)
        : keys(k), cmux(k.bsk(), accs, cts, n), count(n), spectra(sp),
          lanes(l),
          stride((size_t(k.params().k) + 1) * k.params().l_bsk *
                 (k.params().N / 2))
    {
    }

    uint64_t extractStep() const { return cmux.end(); }
    uint64_t keySwitchStep() const { return extractStep() + 1; }
    uint64_t sumStep() const { return extractStep() + 2; }

    /** The first keyswitch input coefficient of the partner's block. */
    uint32_t keySwitchSplit() const { return keys.ksk().inDim() / 2; }

    /** The step after @p s that runs (0: the first). */
    uint64_t next(uint64_t s) const
    {
        return s < extractStep() ? cmux.next(s) : s + 1;
    }

    /**
     * Spectra buffer @p parity. Paired steps alternate the two buffers,
     * starting from 0 at the step a partner joins at (steps that run
     * need not be consecutive, so the parity is counted, not s & 1); a
     * step alone uses buffer 0.
     */
    Cplx *buffer(unsigned parity) const
    {
        return spectra + parity * stride;
    }

    /** Side @p side's first (forward) or second half of CMux step s. */
    void cmuxHalf(uint64_t s, uint32_t side, bool second, Cplx *buf,
                  PbsScratch &scratch) const
    {
        const GgswFft &bit = cmux.bit(s);
        GlweCiphertext &acc = cmux.acc(s);
        for (uint32_t c = side; c <= keys.params().k; c += 2) {
            if (second)
                bit.cmuxAccumulate(acc, c, buf, scratch);
            else
                bit.cmuxForward(acc, cmux.power(s), c, buf, scratch);
        }
    }

    LanePair link;
    const EvalKeys &keys;
    const CmuxSteps cmux;
    const size_t count;
    Cplx *const spectra; //!< the owner's two spectra buffers
    PartnerLanes *const lanes;
    const size_t stride; //!< Cplx per spectra buffer
    /**
     * The extracted LWEs: the owner fills them in extractStep(), and
     * both lanes read them in keySwitchStep().
     */
    std::vector<LweCiphertext> big;
    /** The partner's keyswitch block, read by the owner in sumStep(). */
    std::vector<LweCiphertext> partials;
    bool partials_done = false;
};

PartnerJob::PartnerJob(std::shared_ptr<PairedEpoch> epoch)
    : epoch_(std::move(epoch))
{
}

bool
PartnerJob::ask() const
{
    return epoch_->link.ask();
}

void
PartnerJob::run() const
{
    PairedEpoch &e = *epoch_;
    uint64_t s = e.link.joined();
    if (s == 0)
        return;
    // A lane's partner scratch outlives the epoch, as its own does.
    thread_local PbsScratch scratch;
    try {
        e.keys.bsk().bit(0).reserveScratch(scratch);
        e.partials.assign(e.count, LweCiphertext(e.keys.ksk().outDim()));
    } catch (...) {
        e.link.leave(s); // the owner runs this epoch alone
        return;
    }
    const uint64_t extract = e.extractStep();
    for (unsigned parity = 0;; s = e.next(s), parity ^= 1) {
        if (s >= e.sumStep() || e.lanes->recall(s)) {
            e.link.leave(s);
            return;
        }
        if (s < extract)
            e.cmuxHalf(s, 1, false, e.buffer(parity), scratch);
        if (!e.link.partnerMeet(s))
            return; // the owner failed and closed the epoch
        if (s < extract) {
            e.cmuxHalf(s, 1, true, e.buffer(parity), scratch);
        } else if (s == e.keySwitchStep()) {
            try {
                keySwitchBlock(e.partials.data(), e.big.data(), e.count,
                               e.keys.ksk(), e.keySwitchSplit(),
                               e.keys.ksk().inDim());
                e.partials_done = true;
            } catch (...) {
                // The owner switches this block itself in sumStep().
            }
        }
    }
}

bool
PartnerLanes::offer(uint64_t, const PartnerJob &job)
{
    // Refuse before the job is copied into a std::function (a heap
    // allocation): an owner without a partner offers at every step
    // boundary, and a full pool must cost it two loads.
    if (!pool_->hasSpareLane())
        return false;
    return pool_->postIfIdle([job](unsigned) {
        if (job.ask())
            job.run();
    });
}

bool
PartnerLanes::recall(uint64_t)
{
    return pool_->queued() > 0;
}

void
bootstrapKeySwitch(const EvalKeys &keys, const LweCiphertext *cts,
                   const TorusPolynomial *const *tvs, size_t count,
                   LweCiphertext *out, PbsScratch &scratch,
                   PartnerLanes *lanes)
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
    blindRotateInit(accs.data(), cts, count, keys.bsk(), scratch);
    if (count == 0)
        return;
    keys.bsk().bit(0).reserveScratch(scratch);
    const auto shared = std::make_shared<PairedEpoch>(
        keys, cts, count, accs.data(), scratch.spectra.data(), lanes);
    PairedEpoch &e = *shared;
    const PartnerJob job(shared);

    // Whatever ends the epoch, a partner is out of this scratch first.
    bool paired = false;
    unsigned parity = 0;  //!< the spectra buffer of a paired step
    bool offered = false; //!< an offer is out and has not joined yet
    uint64_t until = 0;   //!< the step an attached partner must finish
    struct Closer
    {
        PairedEpoch &e;
        const uint64_t &until;
        ~Closer() { e.link.close(until); }
    } closer{e, until};

    const uint64_t extract = e.extractStep();
    const uint64_t keyswitch = e.keySwitchStep();
    bool split_keyswitch = false;
    for (uint64_t s = e.next(0); s <= e.sumStep(); s = e.next(s)) {
        if (!paired && lanes && s < e.sumStep()) {
            // One offer at a time; its lane joins at the first boundary
            // after it asks.
            if (!offered)
                offered = lanes->offer(s, job);
            if (e.link.pending()) {
                e.link.admit(s);
                paired = true;
                parity = 0;
                offered = false;
            }
        }
        if (paired) {
            Cplx *buf = e.buffer(parity);
            parity ^= 1;
            until = s;
            if (s < extract)
                e.cmuxHalf(s, 0, false, buf, scratch);
            paired = e.link.ownerMeet(s);
            until = paired ? s + 1 : 0;
            if (s < extract) {
                if (!paired) // the partner left: run its half too
                    e.cmuxHalf(s, 1, false, buf, scratch);
                e.cmuxHalf(s, 0, true, buf, scratch);
                if (!paired)
                    e.cmuxHalf(s, 1, true, buf, scratch);
                continue;
            }
        } else if (s < extract) {
            e.cmux.run(s, scratch);
            continue;
        }
        if (s == extract) {
            e.big.reserve(count);
            for (size_t b = 0; b < count; ++b)
                e.big.push_back(sampleExtract(accs[b], 0));
        } else if (s == keyswitch) {
            split_keyswitch = paired;
            const uint32_t last =
                paired ? e.keySwitchSplit() : keys.ksk().inDim();
            for (size_t b = 0; b < count; ++b)
                out[b] = LweCiphertext::trivial(keys.ksk().outDim(),
                                                e.big[b].b());
            keySwitchBlock(out, e.big.data(), count, keys.ksk(), 0, last);
        } else if (split_keyswitch) {
            // sumStep(): the partner has left, every step before done.
            if (!e.partials_done)
                keySwitchBlock(out, e.big.data(), count, keys.ksk(),
                               e.keySwitchSplit(), keys.ksk().inDim());
            else
                for (size_t b = 0; b < count; ++b)
                    out[b].addAssign(e.partials[b]);
        }
    }
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
    // unallocated. With fewer epochs than lanes, idle lanes join
    // running epochs as partners.
    std::vector<PbsScratch> scratch(pool_->lanes() + 1);
    PartnerLanes lanes(*pool_);
    pool_->parallelFor(epochs, [&](size_t e, unsigned worker) {
        const size_t first = e * width;
        bootstrapKeySwitch(*keys_, cts + first, tvs + first,
                           std::min(width, count - first),
                           out.data() + first, scratch[worker], &lanes);
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
