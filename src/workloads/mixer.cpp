#include "workloads/mixer.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace artmem::workloads {

Mixer::Mixer(std::vector<std::unique_ptr<AccessGenerator>> children,
             Bytes page_size, std::size_t quantum)
    : quantum_(quantum)
{
    if (children.empty())
        fatal("Mixer: at least one child workload required");
    if (quantum_ == 0)
        fatal("Mixer: quantum must be positive");
    name_ = "mix(";
    Bytes offset = 0;
    for (auto& gen : children) {
        Child child;
        child.page_offset = static_cast<PageId>(offset / page_size);
        total_ += gen->total_accesses();
        if (!children_.empty())
            name_ += '+';
        name_ += gen->name();
        // Stack footprints page-aligned.
        const Bytes aligned =
            (gen->footprint() + page_size - 1) / page_size * page_size;
        offset += aligned;
        child.gen = std::move(gen);
        children_.push_back(std::move(child));
    }
    footprint_ = offset;
    name_ += ")";
}

std::size_t
Mixer::fill(std::span<PageId> out)
{
    std::size_t produced = 0;
    std::size_t idle_rounds = 0;
    while (produced < out.size() && idle_rounds < children_.size()) {
        Child& child = children_[turn_];
        turn_ = (turn_ + 1) % children_.size();
        if (child.done) {
            ++idle_rounds;
            continue;
        }
        // The child fills its own slice of out, shifted in place.
        const auto slice = out.subspan(
            produced, std::min(quantum_, out.size() - produced));
        const std::size_t got = child.gen->fill(slice);
        if (got == 0) {
            child.done = true;
            ++idle_rounds;
            continue;
        }
        idle_rounds = 0;
        for (PageId& page : slice.first(got))
            page += child.page_offset;
        produced += got;
    }
    return produced;
}

}  // namespace artmem::workloads
