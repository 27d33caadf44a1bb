#include "memsim/pebs.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace artmem::memsim {

PebsSampler::PebsSampler(const Config& config)
    : capacity_(config.buffer_capacity),
      period_(config.period),
      countdown_(config.period)
{
    if (config.period == 0)
        fatal("PebsSampler: period must be positive");
    if (config.buffer_capacity == 0)
        fatal("PebsSampler: buffer_capacity must be positive");
    buffer_.reserve(capacity_);
}

std::size_t
PebsSampler::drain(std::vector<PebsSample>& out, std::size_t max_items)
{
    const std::size_t n = std::min(max_items, buffer_.size());
    const auto end = buffer_.begin() + static_cast<std::ptrdiff_t>(n);
    out.insert(out.end(), buffer_.begin(), end);
    buffer_.erase(buffer_.begin(), end);
    return n;
}

}  // namespace artmem::memsim
