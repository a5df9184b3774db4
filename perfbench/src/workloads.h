/**
 * @file
 * The three perfbench workloads and the per-layer probes of the traced
 * run.
 *
 *  - pbs_sweep: in-process ServerContext at parameter set I; width-16
 *    bootstrapBatch sweeps, then single bootstrap() calls.
 *  - serve_set1: loopback StrixServer at set I, 2 tenants, closed
 *    loop with 2 requests outstanding per tenant.
 *  - circuit_churn: the daemon at set I with a 4-bundle key budget; 2
 *    tenants evaluate an 8-bit adder circuit in a closed loop while a
 *    third connection registers a fresh tenant every 2 s.
 *
 * Every output is decode-checked against the cleartext result.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Command-line settings of one run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string source_id = "unknown"; //!< git sha or source digest
    std::string trace_path;            //!< where the traced run's spans go
};

/** Counts, metrics and context of one run. */
class Report
{
  public:
    struct Phase
    {
        uint64_t attempted = 0;
        uint64_t ok = 0;
        std::map<std::string, uint64_t> failed; //!< by reason
    };
    struct Metric
    {
        std::string name;
        double value = 0;
        std::string unit;
    };

    void attempt(const std::string &phase) { ++phases_[phase].attempted; }
    void succeed(const std::string &phase) { ++phases_[phase].ok; }
    void fail(const std::string &phase, const std::string &reason)
    {
        ++phases_[phase].failed[reason];
    }
    /** A decoded result differs from the cleartext: the run is wrong. */
    void mismatch(const std::string &phase, const std::string &what);
    /** A check the run cannot continue past (setup, connection loss). */
    void abort(const std::string &what);

    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics_.push_back({name, value, unit});
    }
    /** Context entry; @p json is already a JSON value. */
    void context(const std::string &key, const std::string &json)
    {
        context_.emplace_back(key, json);
    }

    bool correct() const { return mismatches_.empty(); }
    bool aborted() const { return !abort_.empty(); }
    const std::string &abortReason() const { return abort_; }
    const std::vector<std::string> &mismatches() const
    {
        return mismatches_;
    }
    const std::map<std::string, Phase> &phases() const { return phases_; }
    const std::vector<Metric> &metrics() const { return metrics_; }
    const std::vector<std::pair<std::string, std::string>> &
    contextEntries() const
    {
        return context_;
    }
    uint64_t attempted() const;
    uint64_t failed() const;

  private:
    std::map<std::string, Phase> phases_;
    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, std::string>> context_;
    std::vector<std::string> mismatches_;
    std::string abort_;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Run one workload. Untraced runs report the end-to-end metrics,
 * traced runs the per-layer metrics. Failures, mismatches and aborts
 * are recorded in @p report.
 */
void runWorkload(const RunOptions &opts, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
