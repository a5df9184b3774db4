/**
 * @file
 * Fig. 7 reproduction: Zama Deep-NN (NN-20/50/100) execution time on
 * CPU, GPU, and Strix for polynomial degrees N = 1024/2048/4096.
 */

#include <cstdio>

#include "bench_flags.h"
#include "baselines/cpu_model.h"
#include "baselines/gpu_model.h"
#include "common/table.h"
#include "strix/accelerator.h"
#include "workloads/deepnn.h"

using namespace strix;

int
main(int argc, char **)
{
    if (rejectArgs(argc, "fig7_deepnn"))
        return 2;
    std::printf("=== Fig. 7: Zama Deep-NN execution time (ms), "
                "CPU vs GPU vs Strix ===\n\n");

    CpuModel cpu;
    GpuModel gpu;
    StrixAccelerator strix;

    TextTable t;
    t.header({"Model", "N", "#PBS", "CPU ms", "GPU ms", "Strix ms",
              "CPU/Strix", "GPU/Strix"});

    double min_cpu_ratio = 1e30, max_cpu_ratio = 0;
    double min_gpu_ratio = 1e30, max_gpu_ratio = 0;
    for (uint32_t depth : {20u, 50u, 100u}) {
        WorkloadGraph g = buildDeepNn(depth);
        for (uint32_t big_n : {1024u, 2048u, 4096u}) {
            const TfheParams &p = deepNnParams(big_n);
            double cpu_ms = cpu.runGraphSeconds(p, g) * 1e3;
            double gpu_ms = gpu.runGraphSeconds(p, g) * 1e3;
            double strix_ms = strix.runGraph(p, g).seconds * 1e3;
            double rc = cpu_ms / strix_ms;
            double rg = gpu_ms / strix_ms;
            min_cpu_ratio = std::min(min_cpu_ratio, rc);
            max_cpu_ratio = std::max(max_cpu_ratio, rc);
            min_gpu_ratio = std::min(min_gpu_ratio, rg);
            max_gpu_ratio = std::max(max_gpu_ratio, rg);
            t.row({g.name(), std::to_string(big_n),
                   std::to_string(g.totalPbs()),
                   TextTable::num(cpu_ms, 0), TextTable::num(gpu_ms, 0),
                   TextTable::num(strix_ms, 0), TextTable::num(rc, 1),
                   TextTable::num(rg, 1)});
        }
        t.separator();
    }
    t.print();

    std::printf("\nSpeedup ranges across all nine points:\n");
    std::printf("  Strix vs CPU: %.0f-%.0fx  (paper: 33-38x)\n",
                min_cpu_ratio, max_cpu_ratio);
    std::printf("  Strix vs GPU: %.0f-%.0fx  (paper: 8-17x)\n",
                min_gpu_ratio, max_gpu_ratio);
    std::printf("\nShape checks: Strix wins on every point; the gap "
                "widens with heavier workloads (deeper networks, "
                "larger N); the GPU suffers BR fragmentation on the "
                "92-neuron layers (92 < 2 x 72 SMs).\n");
    return 0;
}
