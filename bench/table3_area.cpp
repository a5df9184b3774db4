/**
 * @file
 * Table III reproduction: area and power breakdown of Strix (8 HSCs,
 * TSMC 28nm constants) from the parametric area model.
 */

#include <cstdio>

#include "bench_flags.h"
#include "common/table.h"
#include "strix/area_model.h"

using namespace strix;

namespace {

void
row(TextTable &t, const char *name, const AreaPower &ap,
    double paper_area, double paper_power)
{
    t.row({name, TextTable::num(ap.area_mm2, 2),
           TextTable::num(ap.power_w, 2), TextTable::num(paper_area, 2),
           TextTable::num(paper_power, 2)});
}

} // namespace

int
main(int argc, char **)
{
    if (rejectArgs(argc, "table3_area"))
        return 2;
    std::printf("=== Table III: area and power breakdown of Strix "
                "(model vs paper, TSMC 28nm, 1.2 GHz) ===\n\n");

    ChipBreakdown b = computeChipBreakdown(StrixConfig::paperDefault());

    TextTable t;
    t.header({"Component", "area mm2", "power W", "paper mm2",
              "paper W"});
    row(t, "Local scratchpad (0.625MB)", b.local_scratchpad, 0.92, 0.47);
    row(t, "Rotator", b.rotator, 0.02, 0.01);
    row(t, "Decomposer", b.decomposer, 0.28, 0.02);
    row(t, "I/FFTU", b.ifftu, 7.23, 5.49);
    row(t, "VMA", b.vma, 0.63, 0.10);
    row(t, "Accumulator", b.accumulator, 0.32, 0.13);
    t.separator();
    row(t, "1 core", b.core, 9.38, 6.21);
    row(t, "8 cores", b.all_cores, 75.03, 49.67);
    row(t, "Global NoC", b.noc, 0.04, 0.01);
    row(t, "Global scratchpad (21MB)", b.global_scratchpad, 51.40,
        26.24);
    row(t, "HBM2 PHY", b.hbm_phy, 14.90, 1.23);
    t.separator();
    row(t, "Total", b.total, 141.37, 77.14);
    t.print();

    std::printf("\nOn-chip SRAM: %.1f MB total (vs 45-512 MB for CKKS "
                "accelerators, Sec. VII).\n",
                21.0 + 8 * 0.625);
    return 0;
}
