#include "sim/registry.hpp"

#include "policies/autonuma.hpp"
#include "policies/autotiering.hpp"
#include "policies/memtis.hpp"
#include "policies/multiclock.hpp"
#include "policies/nimble.hpp"
#include "policies/static_tiering.hpp"
#include "policies/tiering08.hpp"
#include "policies/tpp.hpp"
#include "util/logging.hpp"

namespace artmem::sim {

std::vector<std::string_view>
policy_names()
{
    return {"static",     "autonuma",   "tpp",    "autotiering", "nimble",
            "multiclock", "memtis",     "tiering08", "artmem"};
}

std::unique_ptr<policies::Policy>
make_policy(std::string_view name, std::uint64_t seed)
{
    using namespace policies;
    if (name == "static")
        return std::make_unique<StaticTiering>();
    if (name == "autonuma")
        return std::make_unique<AutoNuma>();
    if (name == "tpp")
        return std::make_unique<Tpp>();
    if (name == "autotiering")
        return std::make_unique<AutoTiering>();
    if (name == "nimble")
        return std::make_unique<Nimble>();
    if (name == "multiclock")
        return std::make_unique<MultiClock>();
    if (name == "memtis")
        return std::make_unique<Memtis>();
    if (name == "tiering08")
        return std::make_unique<Tiering08>();
    if (name == "artmem") {
        core::ArtMemConfig config;
        config.seed = seed;
        return std::make_unique<core::ArtMem>(config);
    }
    fatal("make_policy: unknown policy '", std::string(name), "'");
}

std::unique_ptr<core::ArtMem>
make_artmem(const core::ArtMemConfig& config)
{
    return std::make_unique<core::ArtMem>(config);
}

}  // namespace artmem::sim
