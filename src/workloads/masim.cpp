#include "workloads/masim.hpp"

#include <algorithm>
#include <sstream>

#include "util/logging.hpp"

namespace artmem::workloads {

Masim::Masim(MasimSpec spec, Bytes page_size, std::uint64_t seed)
    : spec_(std::move(spec)), page_size_(page_size), rng_(seed)
{
    if (page_size_ == 0)
        fatal("Masim: page_size must be positive");
    if (spec_.footprint == 0 || spec_.phases.empty())
        fatal("Masim '", spec_.name, "': footprint and phases required");
    for (const auto& phase : spec_.phases) {
        if (phase.accesses == 0 || phase.regions.empty())
            fatal("Masim '", spec_.name, "': empty phase");
        for (const auto& r : phase.regions) {
            if (r.size == 0 || r.weight <= 0.0)
                fatal("Masim '", spec_.name, "': degenerate region");
            if (r.offset + r.size > spec_.footprint)
                fatal("Masim '", spec_.name,
                      "': region exceeds footprint");
        }
        total_ += phase.accesses;
    }
    prepare_phase(0);
}

void
Masim::prepare_phase(std::size_t index)
{
    phase_index_ = index;
    prepared_.clear();
    if (index >= spec_.phases.size()) {
        remaining_in_phase_ = 0;
        return;
    }
    const MasimPhase& phase = spec_.phases[index];
    remaining_in_phase_ = phase.accesses;
    weight_sum_ = 0.0;
    for (const auto& r : phase.regions) {
        PreparedRegion p;
        p.first_page = static_cast<PageId>(r.offset / page_size_);
        const Bytes last = r.offset + r.size - 1;
        p.page_span =
            static_cast<PageId>(last / page_size_) - p.first_page + 1;
        weight_sum_ += r.weight;
        p.cumulative_weight = weight_sum_;
        p.sequential = r.sequential;
        prepared_.push_back(p);
    }
}

std::size_t
Masim::fill(std::span<PageId> out)
{
    std::size_t produced = 0;
    while (produced < out.size()) {
        if (remaining_in_phase_ == 0) {
            if (phase_index_ + 1 >= spec_.phases.size())
                break;
            prepare_phase(phase_index_ + 1);
            continue;
        }
        // Pick a region by weight (few regions: linear scan).
        const double pick = rng_.next_double() * weight_sum_;
        PreparedRegion* region = &prepared_.back();
        for (auto& p : prepared_) {
            if (pick < p.cumulative_weight) {
                region = &p;
                break;
            }
        }
        PageId page;
        if (region->sequential) {
            page = region->first_page + region->cursor;
            region->cursor = (region->cursor + 1) % region->page_span;
        } else {
            page = region->first_page +
                   static_cast<PageId>(rng_.next_below(region->page_span));
        }
        out[produced++] = page;
        --remaining_in_phase_;
    }
    return produced;
}

MasimSpec
Masim::parse_spec(const KvConfig& config)
{
    MasimSpec spec;
    spec.name = config.get_string("name", "masim");
    spec.footprint =
        config.get_uint<Bytes>("footprint_mib", 0, ~Bytes{0} >> 20) << 20;
    const long long phase_count = config.get_int("phases", 0);
    if (phase_count <= 0)
        fatal("masim spec: 'phases' must be positive");
    // Reject keys the schema does not define: a typo like
    // "phase0.acesses = 1000" would otherwise silently fall back to the
    // default and produce a mysteriously different workload.
    for (const auto& key : config.keys()) {
        bool known = key == "name" || key == "footprint_mib" ||
                     key == "phases";
        if (!known && key.rfind("phase", 0) == 0) {
            const std::size_t dot = key.find('.');
            if (dot != std::string::npos) {
                const std::string index = key.substr(5, dot - 5);
                const std::string field = key.substr(dot + 1);
                const bool index_ok =
                    !index.empty() &&
                    index.find_first_not_of("0123456789") == std::string::npos;
                known = index_ok &&
                        (field == "accesses" || field == "regions" ||
                         (field.rfind("region", 0) == 0 &&
                          field.size() > 6 &&
                          field.find_first_not_of("0123456789", 6) ==
                              std::string::npos));
            }
        }
        if (!known)
            fatal("masim spec: unknown key '", key,
                  "' (expected name, footprint_mib, phases, ",
                  "phase<N>.accesses, phase<N>.regions, phase<N>.region<M>)");
    }
    for (long long i = 0; i < phase_count; ++i) {
        const std::string prefix = "phase" + std::to_string(i) + ".";
        MasimPhase phase;
        phase.accesses =
            config.get_uint<std::uint64_t>(prefix + "accesses", 0);
        const long long regions = config.get_int(prefix + "regions", 0);
        for (long long r = 0; r < regions; ++r) {
            const auto key = prefix + "region" + std::to_string(r);
            const auto text = config.get(key);
            if (!text)
                fatal("masim spec: missing ", key);
            std::istringstream in(*text);
            double offset_mib = 0, size_mib = 0, weight = 0;
            std::string seq;
            if (!(in >> offset_mib >> size_mib >> weight))
                fatal("masim spec: malformed ", key, ": '", *text,
                      "' (expected '<offset_mib> <size_mib> <weight> ",
                      "[seq|rand]')");
            in >> seq;
            if (!seq.empty() && seq != "seq" && seq != "rand")
                fatal("masim spec: ", key, ": unknown access mode '", seq,
                      "' (expected seq or rand)");
            std::string trailing;
            if (in >> trailing)
                fatal("masim spec: ", key, ": trailing garbage '", trailing,
                      "'");
            MasimRegion region;
            region.offset = static_cast<Bytes>(offset_mib * (1 << 20));
            region.size = static_cast<Bytes>(size_mib * (1 << 20));
            region.weight = weight;
            region.sequential = seq == "seq";
            phase.regions.push_back(region);
        }
        spec.phases.push_back(std::move(phase));
    }
    return spec;
}

}  // namespace artmem::workloads
