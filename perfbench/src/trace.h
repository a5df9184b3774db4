/**
 * @file
 * In-memory span store for the traced run.
 *
 * The benchmark records a span around each call it makes into a
 * public function of the program (a request from send to checked
 * reply, a sweep, a codec or planner call). Each span carries a name,
 * start and end in nanoseconds on the perfbench clock, its parent
 * span and the request id it belongs to. Spans stay in memory and are
 * written out once, when the run ends. With tracing off every call is
 * a no-op, so the untraced runs that give the end-to-end metrics pay
 * nothing.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanStore
{
  public:
    /** One recorded span; times are perfbench::nowNs() values. */
    struct Span
    {
        std::string name;
        uint64_t start_ns = 0;
        uint64_t end_ns = 0;
        uint32_t parent = 0; //!< id of the enclosing span, 0 = root
        uint64_t request = 0; //!< request id, 0 = not a request
    };

    explicit SpanStore(bool enabled = false) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /**
     * Record a finished span; returns its id (>= 1), or 0 when
     * tracing is off. Safe from any thread.
     */
    uint32_t add(std::string name, uint64_t start_ns, uint64_t end_ns,
                 uint32_t parent = 0, uint64_t request = 0);

    /** Open a span now; close it with end(). 0 when tracing is off. */
    uint32_t begin(std::string name, uint32_t parent = 0,
                   uint64_t request = 0);
    void end(uint32_t id);

    /** Durations in microseconds of every span named @p name. */
    std::vector<double> durationsUs(const std::string &name) const;

    /**
     * Self time of span @p id: its duration minus the part of its
     * interval that its child spans cover (overlapping children are
     * merged, and children are clipped to the parent's interval).
     */
    double selfTimeUs(uint32_t id) const;

    size_t size() const;

    /**
     * Write every span plus a per-name summary (count, median
     * duration, median self time) as JSON to @p path.
     */
    bool writeJson(const std::string &path) const;

  private:
    double selfTimeLocked(uint32_t id) const;

    bool enabled_;
    mutable std::mutex m_;
    std::vector<Span> spans_; //!< id i is spans_[i - 1]
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanStore &store, std::string name, uint32_t parent = 0,
               uint64_t request = 0)
        : store_(store),
          id_(store.begin(std::move(name), parent, request))
    {
    }
    ~ScopedSpan() { store_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint32_t id() const { return id_; }

  private:
    SpanStore &store_;
    uint32_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
