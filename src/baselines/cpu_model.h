/**
 * @file
 * Concrete-like CPU baseline model: per-PBS latency anchored at the
 * published Concrete numbers (Table V) and scaled with n
 * (blind-rotation iterations) and N*log2(N) (FFT cost) for unlisted
 * parameter sets. It is analytic only; measured software-TFHE times
 * come from bench/cpu_measured, bench/fig1_breakdown and perfbench.
 *
 * Workload runs model a multi-socket Xeon with `threads` independent
 * workers, each bootstrapping one LWE at a time (no packing -- the
 * paper's central observation about TFHE on CPUs).
 */

#ifndef STRIX_BASELINES_CPU_MODEL_H
#define STRIX_BASELINES_CPU_MODEL_H

#include "strix/graph.h"
#include "tfhe/params.h"

namespace strix {

/** Analytic CPU model. */
class CpuModel
{
  public:
    /** @param threads worker threads for batch workloads. */
    explicit CpuModel(uint32_t threads = 24) : threads_(threads) {}

    uint32_t threads() const { return threads_; }

    /**
     * Single PBS (+keyswitch) latency in ms. Anchored to Concrete's
     * published set-I latency and scaled by n * N*log2(N); the other
     * published sets calibrate the accuracy of that scaling.
     */
    double pbsLatencyMs(const TfheParams &p) const;

    /** Single-thread throughput is simply 1/latency. */
    double throughputPbsPerSec(const TfheParams &p) const
    {
        return 1000.0 / pbsLatencyMs(p);
    }

    /** Seconds to run @p num_lwes independent PBS on `threads`. */
    double runBatchSeconds(const TfheParams &p, uint64_t num_lwes) const;

    /** Seconds to run a layered workload graph (layer barriers). */
    double runGraphSeconds(const TfheParams &p,
                           const WorkloadGraph &g) const;

  private:
    uint32_t threads_;
};

} // namespace strix

#endif // STRIX_BASELINES_CPU_MODEL_H
