/**
 * @file
 * Extensibility example: implementing your own tiering policy against
 * the public Policy interface and racing it against ArtMem.
 *
 * The custom policy below ("SimpleHot") promotes any slow page seen at
 * least N times in the PEBS sample stream within an interval and never
 * demotes proactively — a ~40-line strawman that shows exactly which
 * hooks a policy gets (samples, ticks, intervals) and how migrations
 * are issued through the TieredMachine.
 *
 *   ./custom_policy --workload=s3 --accesses=4000000
 */
#include <iostream>
#include <vector>

#include "policies/policy.hpp"
#include "sim/experiment.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace artmem;

/** Promote-on-K-samples strawman policy. */
class SimpleHot final : public policies::Policy
{
  public:
    explicit SimpleHot(std::uint32_t k = 2) : k_(k) {}

    std::string_view name() const override { return "simplehot"; }

    void
    init(memsim::TieredMachine& machine) override
    {
        Policy::init(machine);
        window_counts_.assign(machine.page_count(), 0);
    }

    void
    on_samples(std::span<const memsim::PebsSample> samples) override
    {
        for (const auto& s : samples) {
            if (s.tier == memsim::Tier::kSlow &&
                ++window_counts_[s.page] == k_) {
                candidates_.push_back(s.page);
            }
        }
    }

    void
    on_interval(SimTimeNs now) override
    {
        (void)now;
        auto& m = machine();
        for (PageId page : candidates_) {
            if (m.free_pages(memsim::Tier::kFast) == 0)
                break;  // never demotes: stops when DRAM is full
            // migrate() returns a typed result that must be consumed;
            // a failed promotion (pinned page, lost race for the last
            // slot) simply moves on to the next candidate.
            if (!m.migrate(page, memsim::Tier::kFast))
                continue;
        }
        candidates_.clear();
        // Forget stale counts every few intervals (a crude cooling).
        if (++intervals_ % 8 == 0)
            std::fill(window_counts_.begin(), window_counts_.end(), 0);
    }

  private:
    std::uint32_t k_;
    unsigned intervals_ = 0;
    std::vector<std::uint32_t> window_counts_;
    std::vector<PageId> candidates_;
};

}  // namespace

int
main(int argc, char** argv)
{
    const auto args = CliArgs::parse(argc, argv);
    sim::RunSpec spec;
    spec.workload = args.get_string("workload", "s1");
    spec.accesses = args.get_uint<std::uint64_t>("accesses", 4000000);
    spec.seed = args.get_uint<std::uint64_t>("seed", 42);
    spec.ratio = {1, 2};

    std::cout << "Custom policy vs ArtMem on " << spec.workload
              << " (1:2 ratio)\n\n";

    Table table({"policy", "runtime (ms)", "fast ratio", "migrated"});

    SimpleHot custom;
    const auto mine = sim::run_experiment(spec, custom);
    table.row()
        .cell("simplehot (yours)")
        .cell(mine.seconds() * 1e3, 1)
        .cell(mine.fast_ratio, 3)
        .cell(mine.totals.migrated_pages());

    spec.policy = "artmem";
    const auto art = sim::run_experiment(spec);
    table.row()
        .cell("artmem")
        .cell(art.seconds() * 1e3, 1)
        .cell(art.fast_ratio, 3)
        .cell(art.totals.migrated_pages());

    table.print(std::cout);
    std::cout << "\nSimpleHot never demotes, so once DRAM fills with the "
                 "first warm pages it can no longer adapt — the gap to "
                 "ArtMem is the value of scope control + demotion.\n";
    return 0;
}
