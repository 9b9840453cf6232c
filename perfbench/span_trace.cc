#include "span_trace.h"

#include <chrono>
#include <sstream>
#include <stdexcept>

namespace perfbench {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int32_t
Tracer::open(const char *name)
{
    SpanRecord s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.pass = pass_;
    auto index = static_cast<int32_t>(spans_.size());
    spans_.push_back(s);
    stack_.push_back(index);
    // Read the clock last so the bookkeeping above is not timed.
    spans_.back().start_ns = nowNs();
    return index;
}

void
Tracer::close(int32_t index)
{
    int64_t end = nowNs();
    if (stack_.empty() || stack_.back() != index)
        throw std::logic_error("perfbench: spans closed out of order");
    stack_.pop_back();
    spans_[index].end_ns = end;
}

std::string
Tracer::toJsonl() const
{
    std::ostringstream os;
    for (const auto &s : spans_) {
        os << "{\"name\":\"" << s.name << "\",\"start_ns\":"
           << s.start_ns << ",\"end_ns\":" << s.end_ns
           << ",\"parent\":" << s.parent << ",\"pass\":" << s.pass
           << "}\n";
    }
    return os.str();
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

} // namespace perfbench
