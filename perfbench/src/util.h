/**
 * @file
 * Small helpers shared by every perfbench workload: the monotonic
 * clock, the percentile rule, seed derivation, byte digests and the
 * process's peak resident set size.
 */
#ifndef PERFBENCH_UTIL_H
#define PERFBENCH_UTIL_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on the steady clock since the first call. */
uint64_t nowNs();

/** Microseconds on the same clock. */
inline uint64_t nowUs() { return nowNs() / 1000; }

/** A latency sample that failed or was refused: later than any limit. */
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/**
 * Nearest-rank index of quantile @p q over @p n sorted samples,
 * lowered until at least ten samples lie beyond it (the tail rule:
 * the reported tail is the highest percentile the sample supports),
 * but never below the median's index -- with too few samples for the
 * rule the tail reads as the median, and callers report the sample
 * count beside it. Requires n >= 1.
 */
size_t tailIndex(size_t n, double q);

/** Median, the tail at nominal quantile q, and what backs them. */
struct Summary
{
    size_t n = 0;       //!< samples, misses included
    size_t missed = 0;  //!< samples that were kMissed
    double p50 = 0;     //!< nearest-rank median
    double tail = 0;    //!< value at tailIndex(n, q)
    double tail_q = 0;  //!< quantile actually reported, (index+1)/n
};

/** Summarize @p v (consumed: it is sorted in place). Empty -> n = 0. */
Summary summarize(std::vector<double> v, double q);

/** Median of @p v by nearest rank (0 for an empty vector). */
double median(std::vector<double> v);

/** Deterministic child seed for @p label under run seed @p seed. */
uint64_t deriveSeed(uint64_t seed, const std::string &label);

/** FNV-1a 64-bit digest of @p len bytes, chained through @p h. */
uint64_t fnv1a(const void *data, size_t len,
               uint64_t h = 0xcbf29ce484222325ULL);

/** Machine-wide CPU time so far, from /proc/stat (clock ticks). */
struct CpuTicks
{
    uint64_t steal = 0; //!< taken by the hypervisor from this guest
    uint64_t total = 0;
};
CpuTicks cpuTicks();

/** Share of CPU time stolen between @p a and @p b, in percent. */
double stealPct(const CpuTicks &a, const CpuTicks &b);

/** Peak resident set size of this process (VmHWM) in MiB, or -1. */
double peakRssMiB();

/**
 * Hand memory freed by an earlier set-up back to the kernel and restart
 * the VmHWM high-water mark, so peak_rss_mb covers the set-up that is
 * kept and the load after it, not leftovers of discarded set-ups in
 * other allocator arenas. False if the kernel refused the reset (the
 * mark then covers the whole process).
 */
bool restartPeakRss();

/** Format @p v for JSON: finite numbers with all digits, else 1e9. */
std::string jsonNumber(double v);

/** Escape @p s as a JSON string literal (quotes included). */
std::string jsonString(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_UTIL_H
