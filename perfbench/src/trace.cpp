#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "util.h"

namespace perfbench {

uint32_t
SpanStore::add(std::string name, uint64_t start_ns, uint64_t end_ns,
               uint32_t parent, uint64_t request)
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(m_);
    spans_.push_back({std::move(name), start_ns, end_ns, parent, request});
    return uint32_t(spans_.size());
}

uint32_t
SpanStore::begin(std::string name, uint32_t parent, uint64_t request)
{
    return add(std::move(name), nowNs(), 0, parent, request);
}

void
SpanStore::end(uint32_t id)
{
    if (id == 0)
        return;
    const uint64_t t = nowNs();
    std::lock_guard<std::mutex> lock(m_);
    spans_[id - 1].end_ns = t;
}

std::vector<double>
SpanStore::durationsUs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(m_);
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name && s.end_ns >= s.start_ns)
            out.push_back(double(s.end_ns - s.start_ns) / 1e3);
    return out;
}

double
SpanStore::selfTimeLocked(uint32_t id) const
{
    const Span &p = spans_[id - 1];
    std::vector<std::pair<uint64_t, uint64_t>> kids;
    for (const Span &s : spans_) {
        if (&s == &p || s.parent != id)
            continue;
        const uint64_t a = std::max(s.start_ns, p.start_ns);
        const uint64_t b = std::min(s.end_ns, p.end_ns);
        if (b > a)
            kids.emplace_back(a, b);
    }
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0, reach = p.start_ns;
    for (const auto &[a, b] : kids) {
        const uint64_t from = std::max(a, reach);
        if (b > from)
            covered += b - from;
        reach = std::max(reach, b);
    }
    return (double(p.end_ns - p.start_ns) - double(covered)) / 1e3;
}

double
SpanStore::selfTimeUs(uint32_t id) const
{
    std::lock_guard<std::mutex> lock(m_);
    return selfTimeLocked(id);
}

size_t
SpanStore::size() const
{
    std::lock_guard<std::mutex> lock(m_);
    return spans_.size();
}

bool
SpanStore::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(m_);
    std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
        by_name;
    std::fprintf(f, "{\"spans\": [");
    for (uint32_t id = 1; id <= spans_.size(); ++id) {
        const Span &s = spans_[id - 1];
        const double self = selfTimeLocked(id);
        by_name[s.name].first.push_back(double(s.end_ns - s.start_ns) / 1e3);
        by_name[s.name].second.push_back(self);
        std::fprintf(f,
                     "%s\n{\"id\": %u, \"name\": %s, \"start_ns\": %llu, "
                     "\"end_ns\": %llu, \"parent\": %u, \"request\": %llu, "
                     "\"self_us\": %s}",
                     id == 1 ? "" : ",", id, jsonString(s.name).c_str(),
                     (unsigned long long)s.start_ns,
                     (unsigned long long)s.end_ns, s.parent,
                     (unsigned long long)s.request,
                     jsonNumber(self).c_str());
    }
    std::fprintf(f, "\n], \"summary\": {");
    bool first = true;
    for (const auto &[name, v] : by_name) {
        std::fprintf(f,
                     "%s\n%s: {\"count\": %zu, \"median_us\": %s, "
                     "\"median_self_us\": %s}",
                     first ? "" : ",", jsonString(name).c_str(),
                     v.first.size(), jsonNumber(median(v.first)).c_str(),
                     jsonNumber(median(v.second)).c_str());
        first = false;
    }
    std::fprintf(f, "\n}}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
