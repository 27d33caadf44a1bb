/**
 * @file
 * Name-based workload factory used by the bench harnesses and examples:
 * maps the Table 3 workload names (plus the S1-S4 patterns) to
 * configured AccessGenerator instances.
 */
#ifndef ARTMEM_WORKLOADS_FACTORY_HPP
#define ARTMEM_WORKLOADS_FACTORY_HPP

#include <memory>
#include <string_view>
#include <vector>

#include "workloads/generator.hpp"

namespace artmem {
class ZipfShapes;
}

namespace artmem::workloads {

/** All workload names the factory understands. */
std::vector<std::string_view> workload_names();

/** The eight Table 3 application names (no synthetic patterns). */
std::vector<std::string_view> app_workload_names();

/** True when @p name is a MASIM config file path (ends in ".cfg"). */
bool is_masim_config(std::string_view name);

/**
 * Build a workload by name ("ycsb", "cc", "sssp", "pr", "xsbench",
 * "dlrm", "btree", "liblinear", "s1".."s4", "uniform", "sequential"),
 * or from a MASIM config file (is_masim_config; Masim::parse_spec),
 * whose phases set the accesses. fatal() on unknown names.
 *
 * @param name           Workload name or MASIM config path.
 * @param page_size      Machine page size.
 * @param total_accesses Access budget; a MASIM config ignores it.
 * @param seed           RNG seed.
 * @param shapes         The run's Zipf shapes, for the workloads that
 *                       draw from one (ycsb, ycsb_w, btree, cc, sssp,
 *                       pr); none gives each generator a private shape.
 */
std::unique_ptr<AccessGenerator> make_workload(std::string_view name,
                                               Bytes page_size,
                                               std::uint64_t total_accesses,
                                               std::uint64_t seed,
                                               ZipfShapes* shapes = nullptr);

}  // namespace artmem::workloads

#endif  // ARTMEM_WORKLOADS_FACTORY_HPP
