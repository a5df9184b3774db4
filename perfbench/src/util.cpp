#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace perfbench {

uint64_t
nowNs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - epoch)
                        .count());
}

size_t
tailIndex(size_t n, double q)
{
    auto rank = [n](double quant) {
        const size_t r = size_t(std::ceil(quant * double(n)));
        return r == 0 ? size_t(0) : std::min(r, n) - 1;
    };
    const size_t limit = n > 11 ? n - 11 : 0;
    return std::max(std::min(rank(q), limit), rank(0.5));
}

Summary
summarize(std::vector<double> v, double q)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    s.missed = size_t(std::count(v.begin(), v.end(), kMissed));
    s.p50 = v[tailIndex(v.size(), 0.5)];
    const size_t t = tailIndex(v.size(), q);
    s.tail = v[t];
    s.tail_q = double(t + 1) / double(v.size());
    return s;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[tailIndex(v.size(), 0.5)];
}

uint64_t
deriveSeed(uint64_t seed, const std::string &label)
{
    uint64_t z = fnv1a(label.data(), label.size()) ^
                 (seed * 0x9E3779B97F4A7C15ULL);
    // splitmix64 finalizer: decorrelates nearby seeds.
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

uint64_t
fnv1a(const void *data, size_t len, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

CpuTicks
cpuTicks()
{
    // "cpu  user nice system idle iowait irq softirq steal ...";
    // guest time is already counted in user.
    std::ifstream f("/proc/stat");
    std::string cpu;
    f >> cpu;
    CpuTicks t;
    for (int field = 0; field < 8 && f; ++field) {
        uint64_t v = 0;
        f >> v;
        t.total += v;
        if (field == 7)
            t.steal = v;
    }
    return t;
}

double
stealPct(const CpuTicks &a, const CpuTicks &b)
{
    const uint64_t total = b.total - a.total;
    return total == 0 ? 0.0 : 100.0 * double(b.steal - a.steal) /
                                  double(total);
}

double
peakRssMiB()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return -1.0;
}

bool
restartPeakRss()
{
#ifdef __GLIBC__
    malloc_trim(0);
#endif
    std::ofstream f("/proc/self/clear_refs");
    f << "5";
    f.flush();
    return bool(f);
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "1e9";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace perfbench
