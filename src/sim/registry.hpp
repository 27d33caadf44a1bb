/**
 * @file
 * Name-based policy factory: maps the system names used throughout the
 * paper's figures to configured Policy instances.
 */
#ifndef ARTMEM_SIM_REGISTRY_HPP
#define ARTMEM_SIM_REGISTRY_HPP

#include <memory>
#include <string_view>
#include <vector>

#include "core/artmem.hpp"
#include "policies/policy.hpp"

namespace artmem::sim {

/** All policy names, baselines first, ArtMem last. */
std::vector<std::string_view> policy_names();

/**
 * Build a policy by name with default configuration: "static",
 * "autonuma", "tpp", "autotiering", "nimble", "multiclock", "memtis",
 * "tiering08", or "artmem". fatal() on unknown names.
 *
 * @param seed Seed for stochastic policies (ArtMem's exploration).
 */
std::unique_ptr<policies::Policy> make_policy(std::string_view name,
                                              std::uint64_t seed = 42);

/** Build an ArtMem instance with an explicit configuration. */
std::unique_ptr<core::ArtMem> make_artmem(const core::ArtMemConfig& config);

}  // namespace artmem::sim

#endif  // ARTMEM_SIM_REGISTRY_HPP
