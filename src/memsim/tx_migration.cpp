#include "memsim/tx_migration.hpp"

#include "util/logging.hpp"
#include "util/rng.hpp"

namespace artmem::memsim {

namespace {

/** Map a 64-bit hash to [0, 1) (same construction as the injector). */
double
to_unit(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

void
TxConfig::validate() const
{
    if (write_ratio < 0.0 || write_ratio > 1.0)
        fatal("TxConfig: write_ratio must be in [0,1], got ", write_ratio);
    if (max_inflight == 0)
        fatal("TxConfig: max_inflight must be positive");
}

bool
TxState::draw_write(double rate)
{
    // Independent splitmix64 stream keyed by the tx seed; the counter is
    // the draw index, so the schedule is a pure function of (seed, call
    // sequence) — replaying a run replays every abort.
    std::uint64_t x = config.seed + 0x9e3779b97f4a7c15ull * ++write_draws;
    const bool hit = to_unit(splitmix64(x)) < rate;
    if (hit)
        ++write_hits;
    return hit;
}

}  // namespace artmem::memsim
