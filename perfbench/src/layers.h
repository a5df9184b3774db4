/**
 * @file
 * Per-layer probes of the traced run: timed calls into the public
 * functions of each module, made on the workload's own parameters,
 * keys and payloads, plus the direct executor replay. Every call is
 * recorded as a span; the per-layer metrics are medians over them.
 */
#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "tfhe/batch_executor.h"
#include "tfhe/server_context.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/**
 * Count one PBS output in @p phase and check that it decrypts to
 * @p expect; a wrong one is reported as a mismatch. True if right.
 */
bool checkPbsOutput(const strix::ClientKeyset &keys,
                    const strix::LweCiphertext &ct, int64_t expect,
                    const std::string &phase, Report &report);

/** What the probes run on. */
struct ProbeInputs
{
    const strix::ClientKeyset *keys = nullptr;
    const strix::ServerContext *server = nullptr; //!< on keys' bundle
    std::vector<ServeRequest> requests; //!< the workload's own requests
    std::vector<CircuitItem> circuits;  //!< EvalCircuit payloads, if any
    size_t reply_cts = 1;               //!< ciphertexts per reply
    std::vector<uint8_t> evk2;          //!< one tenant's EVK2 frame
};

/**
 * Run the poly, tfhe, server-codec, key and planner probes and report
 * their per-layer metrics. Outputs are decode-checked; a wrong one is
 * reported as a mismatch.
 */
void probeLayers(const ProbeInputs &in, uint64_t seed, SpanStore &trace,
                 Report &report);

/** The workload's closed loop, replayed straight into a BatchExecutor. */
struct DirectLoad
{
    std::vector<const strix::ClientKeyset *> tenants;
    size_t window = 1; //!< requests outstanding per tenant
    double seconds = 1;
};

/**
 * Replay @p load into a fresh default BatchExecutor (submit -> future
 * ready) and report tfhe.exec_direct_*; returns the executor's
 * counters.
 */
strix::BatchExecutor::Stats replayDirect(const DirectLoad &load,
                                         uint64_t seed, SpanStore &trace,
                                         Report &report);

/**
 * Ping round trips on an idle loopback daemon, recorded as
 * "request.ping" spans; for the workload that has no daemon.
 */
void pingIdleDaemon(size_t count, SpanStore &trace, Report &report);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
