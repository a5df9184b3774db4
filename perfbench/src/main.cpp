/**
 * @file
 * strix_perfbench: runs one benchmark workload and prints its result.
 *
 *   strix_perfbench --workload <name> --seed <n> --seconds <s>
 *                   --trace <0|1> [--source <id>] [--trace-out <file>]
 *
 * Prints one line per phase (attempted / ok / failed by reason), one
 * context line, and as the last line the result object
 * {"correct", "attempted", "failed", "metrics"}. Exit codes: 0 done,
 * 1 a decoded output was wrong, 2 bad usage, 4 a check the run could
 * not get past (set-up, a dead connection). run.py bounds its run time.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "strix_perfbench: %s\n"
                 "usage: strix_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--source <id>] "
                 "[--trace-out <file>]\n"
                 "workloads:",
                 why);
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

void
printReport(const RunOptions &o, const Report &r)
{
    for (const auto &[name, p] : r.phases()) {
        std::printf("phase %s: attempted=%llu ok=%llu", name.c_str(),
                    (unsigned long long)p.attempted,
                    (unsigned long long)p.ok);
        for (const auto &[reason, n] : p.failed)
            std::printf(" failed[%s]=%llu", reason.c_str(),
                        (unsigned long long)n);
        std::printf("\n");
    }
    for (size_t i = 0; i < r.mismatches().size() && i < 10; ++i)
        std::printf("mismatch %s\n", r.mismatches()[i].c_str());
    std::string ctx = "{\"workload\": " + jsonString(o.workload) +
                      ", \"seed\": " + std::to_string(o.seed) +
                      ", \"trace\": " + (o.trace ? "true" : "false");
    for (const auto &[key, json] : r.contextEntries())
        ctx += ", " + jsonString(key) + ": " + json;
    std::printf("context %s}\n", ctx.c_str());

    std::string out = std::string("{\"correct\": ") +
                      (r.correct() ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(r.attempted()) +
                      ", \"failed\": " + std::to_string(r.failed()) +
                      ", \"metrics\": {";
    bool first = true;
    for (const Report::Metric &m : r.metrics()) {
        out += (first ? "" : ", ") + jsonString(m.name) +
               ": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit) + "}";
        first = false;
    }
    std::printf("%s}}\n", out.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions o;
    bool have_workload = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, &end);
        } else if (a == "--trace") {
            o.trace = std::strcmp(v, "1") == 0;
            have_trace = o.trace || std::strcmp(v, "0") == 0;
            end = const_cast<char *>(v) + std::strlen(v);
        } else if (a == "--source") {
            o.source_id = v;
        } else if (a == "--trace-out") {
            o.trace_path = v;
        } else {
            return usage(("unknown flag " + a).c_str());
        }
        if (end != nullptr && *end != '\0')
            return usage(("bad value for " + a).c_str());
    }
    if (!have_workload || !have_trace)
        return usage("--workload and --trace are required");
    bool known = false;
    for (const std::string &w : workloadNames())
        known = known || w == o.workload;
    if (!known)
        return usage(("unknown workload " + o.workload).c_str());
    if (!(o.seconds >= 1 && o.seconds <= 60))
        return usage("--seconds must lie in [1, 60]");

    Report report;
    try {
        runWorkload(o, report);
    } catch (const std::exception &e) {
        report.abort(std::string("unexpected exception: ") + e.what());
    }
    if (report.aborted()) {
        std::fprintf(stderr, "strix_perfbench: workload %s failed: %s\n",
                     o.workload.c_str(), report.abortReason().c_str());
        return 4;
    }
    printReport(o, report);
    if (!report.correct()) {
        std::fprintf(stderr,
                     "strix_perfbench: workload %s: %zu decoded outputs "
                     "differ from their cleartext results\n",
                     o.workload.c_str(), report.mismatches().size());
        return 1;
    }
    return 0;
}
