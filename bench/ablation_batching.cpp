/**
 * @file
 * Ablation: two-level batching (the paper's central idea).
 *
 * Sweeps the core-level batch size m and compares against a
 * device-level-only configuration (m = 1, the GPU's limitation), for
 * sets I and IV. Shows where each configuration flips from memory-
 * to compute-bound and how much throughput core-level batching buys
 * at a fixed core count.
 */

#include <cstdio>
#include <string>

#include "bench_flags.h"
#include "common/table.h"
#include "strix/accelerator.h"

using namespace strix;

namespace {

void
sweepSet(const TfheParams &p)
{
    std::printf("-- parameter set %s --\n", p.name.c_str());
    StrixConfig cfg = StrixConfig::paperDefault();
    Hsc core(cfg, p);
    const double hz = cfg.clock_ghz * 1e9;
    const uint32_t cap = core.memory().coreBatch();

    TextTable t;
    t.header({"m (LWE/core)", "epoch batch", "PBS/s", "HBM util %",
              "bound"});
    for (uint32_t m = 1; m <= cap; m *= 2) {
        Cycle iter = core.iterationCycles(m);
        double tp = double(m) * cfg.tvlp * hz / (double(p.n) * iter);
        HscUtilization u = core.utilization(m);
        t.row({std::to_string(m), std::to_string(m * cfg.tvlp),
               TextTable::num(tp, 0), TextTable::num(100 * u.hbm, 0),
               core.memoryBound(m) ? "memory" : "compute"});
    }
    t.print();

    Cycle i1 = core.iterationCycles(1);
    Cycle ic = core.iterationCycles(cap);
    double gain = double(i1) * cap / double(ic);
    std::printf("Two-level batching gain at fixed TvLP=%u: %.2fx over "
                "device-level-only batching (m=1).\n\n",
                cfg.tvlp, gain);
}

} // namespace

/**
 * The same sweep on a bandwidth-starved platform (one DDR-class
 * 75 GB/s channel group instead of an HBM stack): here core-level
 * batching is the difference between a memory-bound and a
 * compute-bound accelerator, which is the regime the GPU analysis of
 * Sec. III lives in.
 */
void
sweepLowBandwidth(const TfheParams &p)
{
    std::printf("-- parameter set %s, 75 GB/s external memory --\n",
                p.name.c_str());
    StrixConfig cfg = StrixConfig::paperDefault();
    cfg.hbm_gbps = 75.0;
    Hsc core(cfg, p);
    const double hz = cfg.clock_ghz * 1e9;
    const uint32_t cap = core.memory().coreBatch();

    TextTable t;
    t.header({"m (LWE/core)", "PBS/s", "vs m=1", "bound"});
    double tp1 = 0.0;
    for (uint32_t m = 1; m <= cap; m *= 2) {
        Cycle iter = core.iterationCycles(m);
        double tp = double(m) * cfg.tvlp * hz / (double(p.n) * iter);
        if (m == 1)
            tp1 = tp;
        t.row({std::to_string(m), TextTable::num(tp, 0),
               TextTable::num(tp / tp1, 2) + "x",
               core.memoryBound(m) ? "memory" : "compute"});
    }
    t.print();
    std::printf("\n");
}

int
main(int argc, char **)
{
    if (rejectArgs(argc, "ablation_batching"))
        return 2;
    std::printf("=== Ablation: core-level batch size (two-level "
                "batching vs device-level only) ===\n\n");
    sweepSet(paramsSetI());
    sweepSet(paramsSetIV());
    sweepLowBandwidth(paramsSetI());

    std::printf("Reading: with m = 1 every blind-rotation iteration "
                "waits on the bootstrapping-key stream (the GPU's "
                "regime); streaming m ciphertexts through the "
                "pipelined core amortizes each key fetch until the "
                "cores are compute-bound -- the motivation for the "
                "HSC (Sec. III).\n");
    return 0;
}
