/**
 * @file
 * Ablation: PLP and CoLP (the two parallelism levels Sec. IV-A
 * discusses but the evaluation does not tabulate), plus the NoC
 * multicast feasibility that pins CLP.
 *
 * PLP replicates the FFT/VMA instances; its availability is bounded
 * by (k+1)*lb. CoLP replicates the output-column datapaths; bounded
 * by (k+1). The sweep shows both the throughput effect and the area
 * cost, quantifying the paper's choice PLP=2, CoLP=2.
 */

#include <cstdio>
#include <string>

#include "bench_flags.h"
#include "common/table.h"
#include "strix/accelerator.h"
#include "strix/area_model.h"
#include "strix/noc.h"

using namespace strix;

int
main(int argc, char **)
{
    if (rejectArgs(argc, "ablation_parallelism"))
        return 2;
    std::printf("=== Ablation: PLP / CoLP sweep (set II: k=1, lb=3 "
                "=> PLP avail = 6, CoLP avail = 2) ===\n\n");

    const TfheParams &p = paramsSetII();
    TextTable t;
    t.header({"PLP", "CoLP", "iter II cy", "PBS/s", "core mm2",
              "PBS/s/mm2"});
    for (uint32_t plp : {1u, 2u, 3u, 6u}) {
        for (uint32_t colp : {1u, 2u}) {
            StrixConfig cfg = StrixConfig::paperDefault();
            cfg.plp = plp;
            cfg.colp = colp;
            StrixAccelerator acc(cfg);
            PbsPerf perf = acc.evaluatePbs(p);
            UnitTiming timing(cfg, p);
            ChipBreakdown area = computeChipBreakdown(cfg, p.N);
            t.row({std::to_string(plp), std::to_string(colp),
                   std::to_string(timing.iterationII()),
                   TextTable::num(perf.throughput_pbs_s, 0),
                   TextTable::num(area.core.area_mm2, 2),
                   TextTable::num(perf.throughput_pbs_s /
                                      area.core.area_mm2 / 8,
                                  0)});
        }
    }
    t.print();
    std::printf("\nPLP=2/CoLP=2 (the paper's choice) balances the "
                "FFT count against the decomposer/accumulator lanes; "
                "pushing PLP to its availability limit buys "
                "throughput sublinearly in area because the non-FFT "
                "units must widen too.\n\n");

    std::printf("=== NoC multicast feasibility vs CLP (set I) ===\n\n");
    TextTable n;
    n.header({"CLP", "bsk demand GB/s", "bsk bus GB/s", "feasible"});
    for (uint32_t clp : {2u, 4u, 8u, 16u}) {
        StrixConfig cfg = StrixConfig::paperDefault();
        cfg.clp = clp;
        NocModel noc(cfg, paramsSetI());
        MulticastPlan plan = noc.multicastPlan();
        n.row({std::to_string(clp),
               TextTable::num(plan.bsk_demand_gbps, 1),
               TextTable::num(plan.bsk_bus_gbps, 1),
               plan.feasible ? "yes" : "NO"});
    }
    n.print();
    std::printf("\nThe fixed 512-bit multicast bus is sized exactly "
                "for CLP=4; doubling CLP would overrun it -- the "
                "on-chip counterpart of Table VII's off-chip "
                "bandwidth wall.\n\n");
    return 0;
}
