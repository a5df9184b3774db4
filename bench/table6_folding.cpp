/**
 * @file
 * Table VI reproduction: effect of the FFT folding optimization on
 * latency, throughput, FFT-unit area, and total core area (parameter
 * set I, both Strix variants sized for 16,384-point transforms).
 */

#include <cstdio>

#include "bench_flags.h"
#include "common/table.h"
#include "strix/accelerator.h"
#include "strix/area_model.h"

using namespace strix;

int
main(int argc, char **)
{
    if (rejectArgs(argc, "table6_folding"))
        return 2;
    std::printf("=== Table VI: FFT folding optimization effects "
                "(parameter set I) ===\n\n");

    StrixAccelerator folded{StrixConfig::paperDefault()};
    StrixAccelerator unfolded{StrixConfig::paperNoFolding()};
    PbsPerf pf = folded.evaluatePbs(paramsSetI());
    PbsPerf pn = unfolded.evaluatePbs(paramsSetI());
    ChipBreakdown af = computeChipBreakdown(StrixConfig::paperDefault());
    ChipBreakdown an =
        computeChipBreakdown(StrixConfig::paperNoFolding());

    TextTable t;
    t.header({"Metric", "No Fold.", "With Fold.", "Improv.",
              "paper Improv."});
    t.row({"Latency (ms)", TextTable::num(pn.latency_ms, 2),
           TextTable::num(pf.latency_ms, 2),
           TextTable::num(pn.latency_ms / pf.latency_ms, 2) + "x",
           "1.68x"});
    t.row({"Throughput (PBS/s)",
           TextTable::num(pn.throughput_pbs_s, 0),
           TextTable::num(pf.throughput_pbs_s, 0),
           TextTable::num(pf.throughput_pbs_s / pn.throughput_pbs_s, 2) +
               "x",
           "1.99x"});
    t.row({"FFT Unit Area (mm2)",
           TextTable::num(an.fft_instance_mm2, 2),
           TextTable::num(af.fft_instance_mm2, 2),
           TextTable::num(an.fft_instance_mm2 / af.fft_instance_mm2, 2) +
               "x",
           "1.73x"});
    t.row({"Total Core Area (mm2)", TextTable::num(an.core.area_mm2, 2),
           TextTable::num(af.core.area_mm2, 2),
           TextTable::num(an.core.area_mm2 / af.core.area_mm2, 2) + "x",
           "1.48x"});
    t.print();

    std::printf("\nPaper values: latency 0.27 -> 0.16 ms, throughput "
                "37,472 -> 74,696 PBS/s, FFT unit 3.13 -> 1.81 mm2, "
                "core 13.87 -> 9.38 mm2.\n");
    std::printf("The folding scheme packs coefficient j and j+N/2 into "
                "one complex sample, so an N-point negacyclic "
                "transform runs on an N/2-point pipelined FFT "
                "(Sec. V-A).\n");
    return 0;
}
