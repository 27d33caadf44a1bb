#include "util/rng.hpp"

#include "util/logging.hpp"

namespace artmem {

std::uint64_t
derive_seed(std::uint64_t base_seed, std::uint64_t index)
{
    std::uint64_t state = base_seed;
    state = splitmix64(state) ^ index;
    return splitmix64(state);
}

Rng::Rng(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(std::uint64_t seed_value)
{
    std::uint64_t sm = seed_value;
    for (auto& s : s_)
        s = splitmix64(sm);
}

void
Rng::panic_bound_zero()
{
    panic("Rng::next_below called with bound 0");
}

}  // namespace artmem
