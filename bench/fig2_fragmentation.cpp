/**
 * @file
 * Fig. 2 reproduction: blind-rotation kernel time on a 72-SM GPU.
 *
 * Left plot:  normalized execution time vs #LWE, showing the
 *             device-level batching staircase (BR fragmentation at
 *             every multiple of 72).
 * Right plot: normalized execution time vs LWE-per-core, showing that
 *             core-level batching on a GPU scales time linearly (no
 *             win) -- the motivation for Strix's specialized cores.
 */

#include <cstdio>

#include "bench_flags.h"
#include "baselines/gpu_model.h"
#include "common/table.h"

using namespace strix;

int
main(int argc, char **)
{
    if (rejectArgs(argc, "fig2_fragmentation"))
        return 2;
    std::printf("=== Fig. 2: GPU blind-rotation fragmentation "
                "(NuFHE model, Titan RTX 72 SMs, parameter set I) "
                "===\n\n");

    GpuModel gpu(72);
    const TfheParams &p = paramsSetI();
    const double t1 = gpu.runBatchSeconds(p, 1);

    std::printf("-- Device-level batching: execution time vs number "
                "of LWEs --\n");
    TextTable dev;
    dev.header({"# LWE", "BR fragmentations", "normalized time"});
    for (uint64_t lwes :
         {1, 36, 72, 73, 108, 144, 145, 216, 217, 288}) {
        dev.row({std::to_string(lwes),
                 std::to_string(gpu.fragmentations(lwes)),
                 TextTable::num(gpu.runBatchSeconds(p, lwes) / t1, 2)});
    }
    dev.print();
    std::printf("Paper: flat at 1x for 1-72 LWEs, stepping to 2x/3x/4x "
                "at 73/145/217 (Eq. (1)-(2)).\n\n");

    std::printf("-- Core-level batching on the GPU: time vs LWE per "
                "core --\n");
    TextTable core;
    core.header({"LWE/core", "normalized time"});
    for (uint32_t c : {1u, 2u, 3u}) {
        core.row({std::to_string(c),
                  TextTable::num(gpu.coreLevelBatchSeconds(p, c) / t1,
                                 2)});
    }
    core.print();
    std::printf("Paper: linear growth 1x/2x/3x -- GPUs gain nothing "
                "from core-level batching, motivating the HSC's fully "
                "pipelined datapath.\n");
    return 0;
}
