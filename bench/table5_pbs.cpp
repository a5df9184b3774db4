/**
 * @file
 * Table V reproduction: PBS latency and throughput across platforms
 * and parameter sets I-IV.
 *
 * Strix rows are computed by our cycle-level model; Concrete/NuFHE
 * rows come from our calibrated analytic baselines; FPGA/ASIC rows
 * are the published reference constants. The headline ratios (1,067x
 * vs CPU, 37x vs GPU, 7.4x vs Matcha) are recomputed at the bottom.
 */

#include <cstdio>

#include "bench_flags.h"
#include "baselines/cpu_model.h"
#include "baselines/gpu_model.h"
#include "baselines/reference_platforms.h"
#include "common/table.h"
#include "strix/accelerator.h"

using namespace strix;

namespace {

std::string
opt(const std::optional<double> &v, int digits)
{
    return v ? TextTable::num(*v, digits) : "-";
}

} // namespace

int
main(int argc, char **)
{
    if (rejectArgs(argc, "table5_pbs"))
        return 2;
    std::printf("=== Table V: PBS latency and throughput across "
                "platforms ===\n\n");

    CpuModel cpu;
    GpuModel gpu;
    StrixAccelerator strix;

    TextTable t;
    t.header({"Platform", "HW", "Set", "Latency ms", "PBS/s",
              "paper ms", "paper PBS/s"});

    // CPU (our analytic model) against the published Concrete rows.
    for (const auto &ref : tableVReferenceRows()) {
        const TfheParams *p = nullptr;
        for (const auto &ps : paperParamSets())
            if (ps.name == ref.param_set)
                p = &ps;
        if (ref.platform == "Concrete") {
            t.row({"Concrete (model)", "CPU", ref.param_set,
                   TextTable::num(cpu.pbsLatencyMs(*p), 2),
                   TextTable::num(cpu.throughputPbsPerSec(*p), 0),
                   opt(ref.latency_ms, 2),
                   opt(ref.throughput_pbs_s, 0)});
        } else if (ref.platform == "NuFHE") {
            t.row({"NuFHE (model)", "GPU", ref.param_set,
                   TextTable::num(gpu.pbsLatencyMs(*p), 2),
                   TextTable::num(gpu.throughputPbsPerSec(*p), 0),
                   opt(ref.latency_ms, 2),
                   opt(ref.throughput_pbs_s, 0)});
        } else {
            // FPGA/ASIC reference-only rows.
            t.row({ref.platform + " (published)", ref.hardware,
                   ref.param_set, opt(ref.latency_ms, 2),
                   opt(ref.throughput_pbs_s, 0), opt(ref.latency_ms, 2),
                   opt(ref.throughput_pbs_s, 0)});
        }
    }
    t.separator();

    // Strix rows: computed by the simulator.
    double strix_tp_I = 0.0;
    for (size_t i = 0; i < paperParamSets().size(); ++i) {
        const TfheParams &p = paperParamSets()[i];
        PbsPerf perf = strix.evaluatePbs(p);
        if (p.name == "I")
            strix_tp_I = perf.throughput_pbs_s;
        const auto &paper = tableVStrixPaperRows()[i];
        t.row({"Strix (simulated)", "ASIC", p.name,
               TextTable::num(perf.latency_ms, 2),
               TextTable::num(perf.throughput_pbs_s, 0),
               opt(paper.latency_ms, 2), opt(paper.throughput_pbs_s, 0)});
    }
    t.print();

    // Headline ratios at parameter set I.
    double cpu_tp = cpu.throughputPbsPerSec(paramsSetI());
    double gpu_tp = gpu.throughputPbsPerSec(paramsSetI());
    std::printf("\nHeadline throughput ratios (set I):\n");
    std::printf("  Strix vs CPU   : %7.0fx  (paper: 1,067x)\n",
                strix_tp_I / cpu_tp);
    std::printf("  Strix vs GPU   : %7.1fx  (paper: 37x)\n",
                strix_tp_I / gpu_tp);
    std::printf("  Strix vs Matcha: %7.1fx  (paper: 7.4x)\n",
                strix_tp_I / 10000.0);
    std::printf("  Set IV vs Concrete: %5.0fx throughput (paper: "
                "2,368x)\n",
                strix.evaluatePbs(paramsSetIV()).throughput_pbs_s /
                    cpu.throughputPbsPerSec(paramsSetIV()));
    return 0;
}
