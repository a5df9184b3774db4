/**
 * @file
 * ServerContext: the evaluation-side half of the split TFHE API.
 *
 * Constructed from a `shared_ptr<const EvalKeys>` -- the public
 * BSK/KSK bundle a ClientKeyset exports (or a deserialized bundle
 * from a remote client) -- and owns everything evaluation needs on
 * top of it: the bootstrap entry points, the batch lane pool, and
 * the FFT plan prewarm. It holds no secret key and no RNG: code that
 * compiles against ServerContext alone provably cannot decrypt.
 *
 * Many ServerContexts may share one EvalKeys with zero key
 * duplication (each adds only its pool). Asynchronous, cross-session
 * PBS goes through BatchExecutor::submit (tfhe/batch_executor.h),
 * which runs bootstrapKeySwitch on its own ThreadPool.
 *
 * Thread-safety contract
 * ----------------------
 * Every member is safe to call concurrently on one shared context.
 * Key material is immutable, the FFT plan caches are prewarmed at
 * construction and lock-free to read, and every bootstrap carries its
 * own scratch buffers. Concurrent batch calls share the context's
 * lanes.
 */

#ifndef STRIX_TFHE_SERVER_CONTEXT_H
#define STRIX_TFHE_SERVER_CONTEXT_H

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/parallel.h"
#include "tfhe/eval_keys.h"

namespace strix {

struct PairedEpoch;

/**
 * A partner's share of one epoch, handed out by bootstrapKeySwitch
 * through PartnerLanes::offer.
 */
class PartnerJob
{
  public:
    explicit PartnerJob(std::shared_ptr<PairedEpoch> epoch);

    /**
     * Ask to join the epoch at its owner's next step boundary. False
     * once the epoch has ended; run() must then not be called.
     */
    bool ask() const;

    /**
     * After ask(): wait for the owner to admit this thread, then run
     * the partner's half of every step until PartnerLanes::recall
     * says to give the lane back or the epoch ends. Never throws: a
     * partner that cannot size its scratch leaves at once.
     */
    void run() const;

  private:
    std::shared_ptr<PairedEpoch> epoch_;
};

/**
 * Where an epoch finds a partner lane, and when the partner gives it
 * back (README "Lane pairs"). The pool-backed rule: an owner without
 * a partner offers at each step boundary through
 * ThreadPool::postIfIdle, so only an idle lane of a pool with no
 * queued job and spare capacity ever joins; a partner gives its lane
 * back at its next step boundary once ThreadPool::queued() > 0.
 * Tests derive from this class to attach and detach partners at
 * chosen steps.
 */
class PartnerLanes
{
  public:
    /** Partners come from idle lanes of @p pool. */
    explicit PartnerLanes(ThreadPool &pool) : pool_(&pool) {}
    virtual ~PartnerLanes() = default;
    PartnerLanes(const PartnerLanes &) = delete;
    PartnerLanes &operator=(const PartnerLanes &) = delete;

    /**
     * Owner, alone at the boundary before @p step: hand a copy of
     * @p job on to a thread that calls job.ask(), then job.run(). True
     * if handed on. Called at every boundary the owner runs alone, so
     * a refusal should cost no allocation.
     */
    virtual bool offer(uint64_t step, const PartnerJob &job);

    /** Partner, at the boundary before @p step: give the lane back? */
    virtual bool recall(uint64_t step);

  protected:
    PartnerLanes() = default; //!< a source that is not a pool

  private:
    ThreadPool *pool_ = nullptr;
};

/**
 * PBS+KS of a sub-batch under @p keys, with caller-owned scratch:
 * out[b] is cts[b] bootstrapped against *tvs[b] and keyswitched back
 * to dimension n, for b < @p count. The sub-batch runs as one
 * key-stationary epoch -- its CmuxSteps apply each BSK bit to all
 * @p count accumulators (held in @p scratch) before the next, and the
 * keyswitch applies each KSK row to all of them before the next -- so
 * each out[b] is bit-identical to a count-1 call. Every bootstrap
 * entry point and the BatchExecutor's lanes run this one function,
 * so their outputs are bit-identical by construction.
 *
 * With @p lanes, a partner lane may join the epoch at any step
 * boundary and leave at a later one (Strix's PLP and CoLP on two
 * lanes). In each CMux step, lane c forward-transforms GLWE component
 * c's digits and, after one meeting, MACs, inverse-transforms and
 * accumulates output column c; the keyswitch splits by input
 * coefficient block, and the owner adds the two mod-2^32 partials.
 * Every floating-point operation keeps its operands and order, so
 * out[] is bit-identical whether, when and how often a partner helps.
 */
void bootstrapKeySwitch(const EvalKeys &keys, const LweCiphertext *cts,
                        const TorusPolynomial *const *tvs, size_t count,
                        LweCiphertext *out, PbsScratch &scratch,
                        PartnerLanes *lanes = nullptr);

/** PBS evaluation engine over a shared public-key bundle. */
class ServerContext
{
  public:
    /**
     * Wrap @p keys (panics on null) and prewarm the FFT plan caches
     * for its ring dimension. The batch calls run on a ThreadPool of
     * @p threads lanes (0: ThreadPool::defaultThreadCount(), so
     * STRIX_THREADS), built by the first batch call, so sequential
     * users never pay for idle threads. A batch runs on at most
     * @p threads threads, its caller and any partner lanes included;
     * 1 runs it inline with no partner.
     */
    explicit ServerContext(std::shared_ptr<const EvalKeys> keys,
                           unsigned threads = 0);

    const TfheParams &params() const { return keys_->params(); }
    const BootstrappingKey &bsk() const { return keys_->bsk(); }
    const KeySwitchKey &ksk() const { return keys_->ksk(); }

    /** The shared bundle this context evaluates under. */
    const std::shared_ptr<const EvalKeys> &evalKeys() const
    {
        return keys_;
    }

    /**
     * Bootstrap @p ct against @p test_vector and keyswitch back to
     * dimension n -- the PBS+KS node every workload graph is made of.
     */
    LweCiphertext bootstrap(const LweCiphertext &ct,
                            const TorusPolynomial &test_vector) const;

    /**
     * Programmable bootstrapping of an integer function f over
     * [0, msg_space): returns an encryption of f(m) (centered
     * encoding), keyswitched to dimension n.
     */
    LweCiphertext applyLut(const LweCiphertext &ct, uint64_t msg_space,
                           const std::function<int64_t(int64_t)> &f) const;

    /**
     * Batched PBS+KS: bootstrap @p count ciphertexts against one
     * shared test vector on the context's lanes, as key-stationary
     * epochs (Strix's two-level batching). With
     * workers = min(count, lanes) the batch splits into sub-batches
     * of B = ceil(count / workers) consecutive ciphertexts (the last
     * may be shorter); each worker runs one at a time through
     * bootstrapKeySwitch with its own scratch, so every BSK bit and
     * KSK row it reads serves B ciphertexts. Width 16 on 4 lanes gives
     * B = 4; a width no larger than the lane count gives B = 1. While
     * fewer epochs than lanes run, an idle lane joins a running epoch
     * as its partner (bootstrapKeySwitch with PartnerLanes), so widths
     * 1 and 2 use up to 2 and 4 threads; width 16 leaves no lane idle.
     * out[i] always corresponds to cts[i] and is bit-identical to
     * bootstrap(cts[i], test_vector) at any width and thread count.
     */
    std::vector<LweCiphertext>
    bootstrapBatch(const LweCiphertext *cts, size_t count,
                   const TorusPolynomial &test_vector) const;

    /** Convenience overload over a vector batch. */
    std::vector<LweCiphertext>
    bootstrapBatch(const std::vector<LweCiphertext> &cts,
                   const TorusPolynomial &test_vector) const;

    /**
     * Batched PBS+KS with a per-ciphertext test vector: tvs[i] is the
     * LUT applied to cts[i] (every pointer non-null, same ring
     * dimension): requests keep their own LUTs while sharing one
     * sweep of epochs (as above), and each out[i] is bit-identical to
     * bootstrap(cts[i], *tvs[i]) at any width and thread count.
     */
    std::vector<LweCiphertext>
    bootstrapBatch(const LweCiphertext *cts,
                   const TorusPolynomial *const *tvs, size_t count) const;

    /**
     * Batched applyLut: builds the test vector for @p f once and
     * evaluates it over the whole batch via bootstrapBatch.
     */
    std::vector<LweCiphertext>
    applyLutBatch(const std::vector<LweCiphertext> &cts, uint64_t msg_space,
                  const std::function<int64_t(int64_t)> &f) const;

  private:
    std::shared_ptr<const EvalKeys> keys_;

    /** Prewarms the FFT plan caches before any evaluation runs. */
    struct FftPrewarm
    {
        explicit FftPrewarm(const TfheParams &p);
    };
    FftPrewarm fft_prewarm_;

    const unsigned threads_; //!< lanes of pool_; 0 = default
    mutable std::once_flag pool_once_;
    mutable std::unique_ptr<ThreadPool> pool_; //!< first batch call
};

} // namespace strix

#endif // STRIX_TFHE_SERVER_CONTEXT_H
