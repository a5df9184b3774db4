/**
 * @file
 * Table VII reproduction: TvLP-vs-CLP trade-off at a fixed
 * TvLP x CLP = 32 budget, parameter set IV, one 300 GB/s HBM2e stack.
 * Shows throughput, latency, and the required external bandwidth;
 * configurations whose bsk stream exceeds the stack go memory-bound
 * and lose throughput.
 */

#include <cstdio>

#include "bench_flags.h"
#include "common/table.h"
#include "strix/accelerator.h"

using namespace strix;

int
main(int argc, char **)
{
    if (rejectArgs(argc, "table7_tvlp_clp"))
        return 2;
    std::printf("=== Table VII: TvLP and CLP effects on throughput, "
                "latency, and required bandwidth (set IV, "
                "TvLP*CLP = 32) ===\n\n");

    struct PaperRow
    {
        uint32_t tvlp, clp;
        double tp, lat, bw;
    };
    const PaperRow paper[] = {
        {16, 2, 2368, 7.2, 200}, {8, 4, 2368, 3.8, 257},
        {4, 8, 2364, 3.8, 371},  {2, 16, 1240, 3.6, 599},
        {1, 32, 620, 3.6, 1053},
    };

    TextTable t;
    t.header({"TvLP", "CLP", "PBS/s", "Latency ms", "Req. BW GB/s",
              "bound", "paper PBS/s", "paper ms", "paper GB/s"});
    for (const auto &row : paper) {
        StrixConfig cfg = StrixConfig::paperDefault();
        cfg.tvlp = row.tvlp;
        cfg.clp = row.clp;
        PbsPerf perf =
            StrixAccelerator(cfg).evaluatePbs(paramsSetIV());
        t.row({std::to_string(row.tvlp), std::to_string(row.clp),
               TextTable::num(perf.throughput_pbs_s, 0),
               TextTable::num(perf.latency_ms, 1),
               TextTable::num(perf.required_bw_gbps, 0),
               perf.memory_bound ? "memory" : "compute",
               TextTable::num(row.tp, 0), TextTable::num(row.lat, 1),
               TextTable::num(row.bw, 0)});
    }
    t.print();

    std::printf("\nShape checks (paper Sec. VI-C):\n"
                "  * TvLP=8/CLP=4 is the sweet spot: highest "
                "throughput at the lowest bandwidth within one "
                "stack.\n"
                "  * Raising CLP shortens the gap between bsk fetches "
                "=> the required bandwidth roughly doubles per CLP "
                "doubling.\n"
                "  * Beyond the stack's 300 GB/s the cores starve and "
                "throughput collapses (memory-bound rows).\n"
                "  * Latency saturates near the bsk-fetch floor once "
                "CLP >= 4.\n");
    return 0;
}
