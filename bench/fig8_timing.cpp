/**
 * @file
 * Fig. 8 reproduction: functional-unit timing (Gantt trace) of the
 * first two blind-rotation iterations with three LWE ciphertexts per
 * core, parameter set I, plus per-unit utilization.
 */

#include <cstdio>

#include "bench_flags.h"
#include "common/table.h"
#include "strix/accelerator.h"

using namespace strix;

int
main(int argc, char **)
{
    if (rejectArgs(argc, "fig8_timing"))
        return 2;
    std::printf("=== Fig. 8: functional-unit timing, first two BR "
                "iterations, 3 LWE/core (set I) ===\n\n");

    StrixAccelerator strix;
    Hsc core = strix.makeCore(paramsSetI());

    GanttTrace trace = core.traceBlindRotation(2, 3);
    std::printf("%s\n", trace.render(96).c_str());
    std::printf("(digits mark which LWE each unit is processing; 'k' "
                "marks bootstrapping-key streaming)\n\n");

    const Cycle period = core.iterationCycles(3);
    std::printf("Iteration period: %llu cycles (%.0f ns at 1.2 GHz); "
                "iteration II per LWE: %llu cycles\n",
                static_cast<unsigned long long>(period),
                double(period) / 1.2,
                static_cast<unsigned long long>(
                    core.timing().iterationII()));

    HscUtilization u = core.utilization(3);
    TextTable t;
    t.header({"Unit", "utilization %", "paper"});
    t.row({"Rotator", TextTable::num(100 * u.rotator, 0), "~50%"});
    t.row({"Decomposer", TextTable::num(100 * u.decomposer, 0),
           "~100%"});
    t.row({"FFT", TextTable::num(100 * u.fft, 0), "~100%"});
    t.row({"VMA", TextTable::num(100 * u.vma, 0), "~100%"});
    t.row({"IFFT", TextTable::num(100 * u.ifft, 0), "~100%"});
    t.row({"Accumulator", TextTable::num(100 * u.accumulator, 0),
           "~100%"});
    t.row({"Local scratchpad", TextTable::num(100 * u.local_scratchpad,
                                              0),
           "~90%"});
    t.row({"HBM (bsk stream)", TextTable::num(100 * u.hbm, 0), "~60%"});
    t.print();

    std::printf("\nThe bsk for iteration i+1 streams during iteration "
                "i; with 3 LWEs per core the compute time exceeds the "
                "fetch time ('time gap to fetch the next keys'), so "
                "the pipeline is compute-bound, as in the paper.\n");
    return 0;
}
