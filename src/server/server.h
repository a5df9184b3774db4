/**
 * @file
 * StrixServer: the multi-tenant encrypted-compute serving daemon.
 *
 * One poll(2) event loop owns every connection: it accepts, reads
 * MSG1 frames through the incremental FrameDecoder, dispatches
 * requests, and writes each reply through its connection's
 * BufferedSender as soon as the socket takes it. PBS work never runs
 * on the loop thread: Bootstrap/ApplyLut requests are submitted to
 * the shared BatchExecutor -- so requests from *different tenants and
 * different connections* coalesce into one batch whenever their key
 * bundles match, and batches of different tenants run at once on the
 * executor's lanes. An EvalCircuit request becomes a PlanRun that the
 * loop steps level by level: each level's PBS go to the same
 * executor, and the loop advances the run once that level's futures
 * resolve, so no thread blocks per circuit and circuits of different
 * tenants overlap. The loop polls outstanding futures and ships each
 * reply when its work completes.
 *
 * Tenants register by uploading an EVK2 EvalKeys bundle; any other
 * upload (another frame tag, key shapes at odds with the params
 * frame, a gadget the decomposer cannot run) is answered BadPayload
 * before anything is cached. Re-uploading a registered tenant's keys
 * is answered Ok; uploading other keys under a registered tenant id
 * is answered BadPayload and leaves the resident bundle in place. A
 * valid bundle lands in a bytes-budgeted EvalKeyCache: under
 * key-memory pressure the least-recently-used idle tenant is evicted
 * and must re-register (requests answer UnknownTenant, a structured
 * error, never a crash).
 * Outside the cache only in-flight work holds a strong bundle
 * reference (a circuit job until its reply, the executor while the
 * tenant has requests queued or running), so idle tenants are
 * evictable and active tenants are pinned resident.
 *
 * Admission control bounds work the server will buffer: a per-tenant
 * in-flight cap and a global queue depth; past either, requests get a
 * structured Busy reject immediately (clients back off and retry).
 * Each request may carry a relative deadline; work that completes too
 * late is answered with DeadlineExceeded instead of a stale result.
 *
 * Trust model: this layer never sees a secret key -- it does not
 * include tfhe/client_keyset.h, directly or through any header it
 * includes (lint-enforced). Everything it holds and computes on is
 * public evaluation material and ciphertexts.
 *
 * Threading: all connection and admission state belongs to the loop
 * thread exclusively (no locks); cross-thread surface is start/stop,
 * the atomic counters behind stats(), and the internally-synchronized
 * EvalKeyCache / BatchExecutor.
 */

#ifndef STRIX_SERVER_SERVER_H
#define STRIX_SERVER_SERVER_H

#include <atomic>
#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/waitclock.h"
#include "net/buffered.h"
#include "net/socket.h"
#include "net/wire.h"
#include "tfhe/batch_executor.h"
#include "tfhe/eval_key_cache.h"
#include "workloads/circuit_analysis.h"

namespace strix {

/** Multi-tenant MSG1 serving daemon over loopback TCP. */
class StrixServer
{
  public:
    struct Options
    {
        /** Listen port (0 = kernel-assigned; see port()). */
        uint16_t port = 0;

        /**
         * Admission: max requests one tenant may have in flight;
         * the next gets a Busy reject.
         */
        size_t max_inflight_per_tenant = 32;

        /** Admission: max requests in flight across all tenants. */
        size_t max_queue_depth = 256;

        /**
         * Per-request payload cap for compute requests (Bootstrap /
         * ApplyLut / EvalCircuit); RegisterTenant is governed by
         * `limits` alone since key bundles are legitimately tens of
         * MiB. Over the cap answers PayloadTooLarge.
         */
        uint64_t max_request_payload_bytes = 64ull << 20;

        /** Cross-tenant PBS batching policy (shared BatchExecutor). */
        BatchExecutor::Options exec;

        /**
         * Key-memory budget handed to the EvalKeyCache
         * (0 = unbounded).
         */
        uint64_t cache_budget_bytes = 0;

        /** Outer-framing caps (absolute payload-length bound). */
        FrameLimits limits;
    };

    /** Monotonic serving counters (atomics; readable any time). */
    struct Stats
    {
        uint64_t conns_accepted = 0;
        uint64_t requests = 0;        //!< well-framed messages seen
        uint64_t ok_replies = 0;
        uint64_t error_replies = 0;   //!< all structured errors
        uint64_t busy_rejects = 0;    //!< admission-control rejects
        uint64_t deadline_misses = 0; //!< completed past deadline
        uint64_t protocol_errors = 0; //!< malformed outer framing
    };

    /**
     * Unsent reply bytes at which the loop stops reading a connection
     * until its peer takes enough to fall below: a peer that never
     * reads stalls itself instead of growing the daemon. Far above a
     * ciphertext reply, so only a peer that leaves replies unread
     * reaches it.
     */
    static constexpr size_t kMaxUnsentBytes = 4u << 20;

    /**
     * How long stop() waits, once every admitted request is answered,
     * for the peers to take their unsent replies before it closes the
     * connections that still hold some.
     */
    static constexpr uint64_t kDrainGraceUs = 2u * 1000 * 1000;

    explicit StrixServer(Options opts);

    /** Default Options. */
    StrixServer();

    /** stop()s if still running. */
    ~StrixServer();

    StrixServer(const StrixServer &) = delete;
    StrixServer &operator=(const StrixServer &) = delete;

    /**
     * Bind the listener and start the event loop. False if the port
     * cannot be bound. Call at most once.
     */
    bool start();

    /**
     * Drain and shut down: stop reading new requests, fulfil every
     * pending response, flush the senders for up to kDrainGraceUs,
     * close every connection, then stop the executor and join all
     * threads. Idempotent.
     */
    void stop();

    /** Bound port (valid after start()). */
    uint16_t port() const { return port_; }

    bool running() const { return running_.load(); }

    Stats stats() const;

    /** Key-cache counters (tenant bundles). */
    CacheStats cacheStats() const { return cache_.stats(); }

    /** Shared PBS executor counters. */
    BatchExecutor::Stats executorStats() const
    {
        return executor_->stats();
    }

    const Options &options() const { return opts_; }

  private:
    /** Per-connection state; owned by the loop thread. */
    struct ConnState
    {
        uint64_t id = 0;
        TcpConn conn;
        FrameDecoder dec;
        BufferedSender out;
        /** Flush what is queued, then close (post-framing-error). */
        bool closing = false;
    };

    /**
     * An admitted EvalCircuit: the stepper, what it references, and
     * the executor futures of its current level. Heap-held by its
     * Pending, so the run's references to circuit and plan stay
     * valid; the bundle pins the tenant resident until the reply.
     */
    struct CircuitJob
    {
        CircuitJob(std::shared_ptr<const EvalKeys> keys, Circuit c,
                   CircuitPlan p, std::vector<LweCiphertext> inputs);
        // run refers to circuit and plan: the job must not move.
        CircuitJob(const CircuitJob &) = delete;
        CircuitJob &operator=(const CircuitJob &) = delete;

        std::shared_ptr<const EvalKeys> bundle;
        Circuit circuit;
        CircuitPlan plan;
        TorusPolynomial sign_tv; //!< every circuit PBS is a sign PBS
        PlanRun run;
        std::vector<std::future<LweCiphertext>> level; //!< run.pending()
    };

    /** One admitted request waiting on its compute future(s). */
    struct Pending
    {
        uint64_t conn_id = 0;
        uint64_t tenant = 0;
        uint64_t request_id = 0;
        uint64_t deadline_abs_us = 0; //!< 0 = no deadline
        std::future<LweCiphertext> single; //!< Bootstrap / ApplyLut
        std::unique_ptr<CircuitJob> circuit; //!< EvalCircuit
    };

    void run();

    void acceptPending();
    /** Read + decode + dispatch; false when the conn must be dropped. */
    bool serviceReadable(ConnState &c, uint64_t now_us);
    void handleMessage(ConnState &c, WireMessage &&m, uint64_t now_us);
    void handleRegister(ConnState &c, const WireMessage &m);
    void handleCompute(ConnState &c, WireMessage &&m, uint64_t now_us);
    /** Scan pendings; ship replies for completed work. */
    void completeFinished();
    /** Submit the PBS of @p job's current level to the executor. */
    void submitLevel(CircuitJob &job);
    /**
     * Once every future of @p job's level has resolved, hand the
     * outputs to its run and submit the next level. True when the job
     * is finished: the run is done, or a PBS failed (@p fail set).
     */
    bool advanceCircuit(CircuitJob &job, std::string &fail);
    void flushSenders();

    void sendOk(ConnState &c, const WireMessage &m,
                std::vector<uint8_t> payload);
    void sendErr(ConnState &c, uint64_t tenant, uint64_t request_id,
                 WireError code, const std::string &text);

    Options opts_;
    std::shared_ptr<WaitableClock> clock_;
    std::shared_ptr<BatchExecutor> executor_;
    EvalKeyCache cache_;

    TcpListener listener_;
    uint16_t port_ = 0;
    std::atomic<bool> running_{false};
    std::atomic<bool> stop_requested_{false};
    std::thread loop_;

    // -- loop-thread-owned state ------------------------------------
    uint64_t next_conn_id_ = 1;
    std::map<uint64_t, ConnState> conns_;
    std::vector<uint8_t> rbuf_; //!< loop-thread read scratch
    std::list<Pending> pendings_;
    std::map<uint64_t, size_t> inflight_; //!< per-tenant admitted

    // -- counters ----------------------------------------------------
    std::atomic<uint64_t> conns_accepted_{0};
    std::atomic<uint64_t> requests_{0};
    std::atomic<uint64_t> ok_replies_{0};
    std::atomic<uint64_t> error_replies_{0};
    std::atomic<uint64_t> busy_rejects_{0};
    std::atomic<uint64_t> deadline_misses_{0};
    std::atomic<uint64_t> protocol_errors_{0};
};

} // namespace strix

#endif // STRIX_SERVER_SERVER_H
