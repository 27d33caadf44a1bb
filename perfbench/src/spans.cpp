#include "spans.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

std::uint32_t
SpanLog::open(Site site)
{
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{site, current_, run_id_, now_ns(), 0});
    current_ = index;
    return index;
}

void
SpanLog::close(std::uint32_t index)
{
    Span& span = spans_[index];
    span.end_ns = now_ns();
    current_ = span.parent;
}

void
SpanLog::append(const SpanLog& other, std::uint32_t parent)
{
    const auto offset = static_cast<std::uint32_t>(spans_.size());
    for (Span span : other.spans_) {
        span.parent = span.parent == kNoParent ? parent : span.parent + offset;
        spans_.push_back(span);
    }
}

void
SpanLog::write_jsonl(std::ostream& out) const
{
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << "{\"id\":" << i << ",\"name\":\""
            << kSiteNames[static_cast<std::size_t>(s.site)] << "\",\"parent\":";
        if (s.parent == kNoParent)
            out << "null";
        else
            out << s.parent;
        out << ",\"run_id\":" << s.run_id << ",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << "}\n";
    }
}

std::vector<std::int64_t>
self_times(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        spans.size());
    for (const Span& s : spans) {
        if (s.parent != kNoParent)
            children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the children's intervals, clipped to the parent; the
        // children of a sweep map run in parallel and may overlap.
        std::int64_t covered = 0;
        std::int64_t reach = s.start_ns;
        for (auto [lo, hi] : kids) {
            lo = std::max(lo, reach);
            hi = std::min(hi, s.end_ns);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
}

}  // namespace perfbench
