#include "memsim/tx_migration.hpp"

#include <algorithm>

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

TxConfig
parse_tx_config(const KvConfig& config)
{
    TxConfig tc;
    static const char* kKnown[] = {
        "tx.enabled",     "tx.seed",          "tx.write_ratio",
        "tx.max_inflight", "tx.non_exclusive",
    };
    for (const auto& key : config.keys()) {
        const bool known =
            std::find_if(std::begin(kKnown), std::end(kKnown),
                         [&](const char* k) { return key == k; }) !=
            std::end(kKnown);
        if (!known)
            fatal("tx config: unknown key '", key, "'");
    }
    tc.enabled = config.get_bool("tx.enabled", false);
    tc.seed = config.get_uint<std::uint64_t>("tx.seed", 1);
    tc.write_ratio = config.get_double("tx.write_ratio", 0.0);
    tc.max_inflight = config.get_uint<std::size_t>("tx.max_inflight", 64);
    tc.non_exclusive = config.get_bool("tx.non_exclusive", true);
    tc.validate();
    return tc;
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
