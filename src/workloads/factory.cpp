#include "workloads/factory.hpp"

#include "util/config.hpp"
#include "util/logging.hpp"
#include "workloads/apps.hpp"
#include "workloads/btree.hpp"
#include "workloads/graph.hpp"
#include "workloads/masim.hpp"
#include "workloads/patterns.hpp"
#include "workloads/simple.hpp"
#include "workloads/ycsb.hpp"

namespace artmem::workloads {

std::vector<std::string_view>
workload_names()
{
    return {"ycsb",  "ycsb_w", "cc",       "sssp", "pr", "xsbench",
            "dlrm",  "btree",  "liblinear", "s1",  "s2", "s3",
            "s4",    "uniform", "sequential"};
}

std::vector<std::string_view>
app_workload_names()
{
    return {"ycsb", "cc",   "sssp",  "pr",
            "xsbench", "dlrm", "btree", "liblinear"};
}

bool
is_masim_config(std::string_view name)
{
    return name.ends_with(".cfg");
}

std::unique_ptr<AccessGenerator>
make_workload(std::string_view name, Bytes page_size,
              std::uint64_t total_accesses, std::uint64_t seed,
              ZipfShapes* shapes)
{
    if (is_masim_config(name)) {
        return std::make_unique<Masim>(
            Masim::parse_spec(KvConfig::load(std::string(name))), page_size,
            seed);
    }
    if (name == "ycsb") {
        Ycsb::Params p;
        p.total_accesses = total_accesses;
        return std::make_unique<Ycsb>(p, page_size, seed, shapes);
    }
    if (name == "ycsb_w") {
        // Write-heavy YCSB mix (workload-A-like): hotter skew and more
        // live insertion churn. Paired with --tx-write-ratio to model
        // the update fraction hitting in-flight migrations.
        Ycsb::Params p;
        p.total_accesses = total_accesses;
        p.zipf_theta = 0.999;
        p.initial_fill = 0.8;
        p.label = "ycsb_w";
        return std::make_unique<Ycsb>(p, page_size, seed, shapes);
    }
    if (name == "cc") {
        return std::make_unique<GraphWorkload>(
            GraphWorkload::cc(total_accesses), page_size, seed, shapes);
    }
    if (name == "sssp") {
        return std::make_unique<GraphWorkload>(
            GraphWorkload::sssp(total_accesses), page_size, seed, shapes);
    }
    if (name == "pr") {
        return std::make_unique<GraphWorkload>(
            GraphWorkload::pr(total_accesses), page_size, seed, shapes);
    }
    if (name == "xsbench") {
        return std::make_unique<Masim>(xsbench_spec(total_accesses),
                                       page_size, seed);
    }
    if (name == "dlrm") {
        return std::make_unique<Masim>(dlrm_spec(total_accesses), page_size,
                                       seed);
    }
    if (name == "btree") {
        Btree::Params p;
        p.total_accesses = total_accesses;
        return std::make_unique<Btree>(p, page_size, seed, shapes);
    }
    if (name == "liblinear") {
        return std::make_unique<Masim>(liblinear_spec(total_accesses),
                                       page_size, seed);
    }
    if (name == "s1" || name == "s2" || name == "s3" || name == "s4") {
        const int k = name[1] - '0';
        return std::make_unique<Masim>(pattern_spec(k, total_accesses),
                                       page_size, seed);
    }
    if (name == "uniform") {
        return std::make_unique<UniformRandom>(32ull << 30, page_size,
                                               total_accesses, seed);
    }
    if (name == "sequential") {
        return std::make_unique<SequentialScan>(32ull << 30, page_size,
                                                total_accesses);
    }
    fatal("make_workload: unknown workload '", std::string(name), "'");
}

}  // namespace artmem::workloads
