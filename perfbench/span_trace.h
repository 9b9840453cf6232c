/**
 * @file
 * The benchmark's own span tracer. Spans are opened only by the
 * benchmark, around its calls into a library's public functions, so
 * the libraries carry no benchmark instrumentation. Each span keeps a
 * name, start, end, parent and pass id in memory; the run writes them
 * out when it ends and rolls them up into self and inclusive time per
 * span name.
 *
 * Tracing is off unless enabled: a disabled Scope is one branch and
 * reads no clock. Spans are opened and closed on the benchmark's main
 * thread only; work a library fans out to its pool shows up inside the
 * enclosing span.
 */

#ifndef PERFBENCH_SPAN_TRACE_H
#define PERFBENCH_SPAN_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds from std::chrono::steady_clock. */
int64_t nowNs();

/** One closed span. */
struct SpanRecord
{
    const char *name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    /** Index of the enclosing span in Tracer::spans(), or -1. */
    int32_t parent = -1;
    /** Pass the span belongs to; -1 for set-up. */
    int32_t pass = -1;
};

/** Self and inclusive seconds of one span name, summed. */
struct SpanTotals
{
    int64_t count = 0;
    double inclusive_s = 0.0;
    double self_s = 0.0;
};

class Tracer
{
  public:
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Pass id stamped on spans opened from now on. */
    void setPass(int32_t pass) { pass_ = pass; }

    /** Open a span; returns its index. Requires enabled(). */
    int32_t open(const char *name);
    /** Close the innermost open span @p index. */
    void close(int32_t index);

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /**
     * Self and inclusive time per span name over the spans for which
     * @p keep(pass) holds. Self time is the span's duration minus the
     * time its direct children cover.
     */
    template <typename Keep>
    std::map<std::string, SpanTotals> rollup(Keep keep) const;

    /** The spans as JSON lines (name, start/end ns, parent, pass). */
    std::string toJsonl() const;

  private:
    bool enabled_ = false;
    int32_t pass_ = -1;
    std::vector<SpanRecord> spans_;
    std::vector<int32_t> stack_;
};

/** The process-wide tracer. */
Tracer &tracer();

/** RAII span; a no-op while the tracer is disabled. */
class Scope
{
  public:
    explicit Scope(const char *name)
        : index_(tracer().enabled() ? tracer().open(name) : -1)
    {
    }
    ~Scope()
    {
        if (index_ >= 0)
            tracer().close(index_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int32_t index_;
};

template <typename Keep>
std::map<std::string, SpanTotals>
Tracer::rollup(Keep keep) const
{
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const auto &s : spans_) {
        if (s.parent >= 0)
            child_s[s.parent] += (s.end_ns - s.start_ns) * 1e-9;
    }
    std::map<std::string, SpanTotals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        if (!keep(s.pass))
            continue;
        double incl = (s.end_ns - s.start_ns) * 1e-9;
        auto &t = out[s.name];
        ++t.count;
        t.inclusive_s += incl;
        t.self_s += incl - child_s[i];
    }
    return out;
}

} // namespace perfbench

#endif // PERFBENCH_SPAN_TRACE_H
