/**
 * @file
 * Ablation: bootstrapping-key unrolling (the Matcha technique,
 * Sec. VII) on the Strix microarchitecture.
 *
 * Unrolling halves the blind-rotation iteration count but triples the
 * external products per iteration and grows the key 1.5x. The sweep
 * shows why Strix chose streaming batching instead: at fixed hardware
 * unrolling *loses* throughput; it only wins latency after scaling
 * the FFT/VMA complex (PLP) 3x, paying area and bandwidth.
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
    if (rejectArgs(argc, "ablation_unrolling"))
        return 2;
    std::printf("=== Ablation: 2x bootstrapping-key unrolling "
                "(set I) ===\n\n");

    struct Variant
    {
        const char *name;
        bool unroll;
        uint32_t plp;
        uint32_t colp;
        double hbm;
    };
    const Variant variants[] = {
        {"Strix (baseline)", false, 2, 2, 300.0},
        {"unrolled, fixed hw", true, 2, 2, 300.0},
        {"unrolled, 3x datapaths", true, 6, 6, 300.0},
        {"unrolled, 3x dp + 4x HBM", true, 6, 6, 1200.0},
    };

    TextTable t;
    t.header({"variant", "iters", "lat ms", "PBS/s", "bsk/iter KB",
              "req BW GB/s", "core mm2"});
    for (const auto &v : variants) {
        StrixConfig cfg = StrixConfig::paperDefault();
        cfg.key_unrolling = v.unroll;
        cfg.plp = v.plp;
        cfg.colp = v.colp;
        cfg.hbm_gbps = v.hbm;
        StrixAccelerator acc(cfg);
        PbsPerf perf = acc.evaluatePbs(paramsSetI());
        UnitTiming timing(cfg, paramsSetI());
        MemorySystem mem(cfg, paramsSetI());
        ChipBreakdown area = computeChipBreakdown(cfg);
        t.row({v.name,
               std::to_string(timing.iterations()),
               TextTable::num(perf.latency_ms, 3),
               TextTable::num(perf.throughput_pbs_s, 0),
               TextTable::num(mem.bskBytesPerIteration() / 1024.0, 0),
               TextTable::num(perf.required_bw_gbps, 0),
               TextTable::num(area.core.area_mm2, 2)});
    }
    t.print();

    std::printf("\nReading: Matcha's unrolling buys single-ciphertext "
                "latency at the cost of key size, bandwidth, and "
                "area; Strix's two-level batching reaches 7.4x "
                "Matcha's throughput without it (Table V), which is "
                "why the paper leaves unrolling out.\n");
    return 0;
}
