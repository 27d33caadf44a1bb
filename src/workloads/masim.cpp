#include "workloads/masim.hpp"

#include <algorithm>
#include <cmath>
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
        double weight_sum = 0.0;
        for (const auto& r : phase.regions) {
            if (r.size == 0 || !(r.weight > 0.0 && std::isfinite(r.weight)))
                fatal("Masim '", spec_.name, "': degenerate region");
            // No offset + size here: that sum can wrap.
            if (r.offset > spec_.footprint ||
                r.size > spec_.footprint - r.offset)
                fatal("Masim '", spec_.name,
                      "': region exceeds footprint");
            weight_sum += r.weight;
        }
        if (!std::isfinite(weight_sum))
            fatal("Masim '", spec_.name, "': region weights overflow");
        total_ += phase.accesses;
    }
    prepare_phase(0);
}

namespace {

/**
 * The smallest 53-bit draw k whose region pick, u * weight_sum with
 * u = k * 2^-53 as Rng::next_double() forms it, is not below
 * @p cumulative; 2^53 if there is none. The pick is monotone in k, so
 * a binary search finds it.
 */
std::uint64_t
pick_cutoff(double cumulative, double weight_sum)
{
    const auto below = [&](std::uint64_t k) {
        return static_cast<double>(k) * 0x1.0p-53 * weight_sum < cumulative;
    };
    std::uint64_t lo = 0;
    std::uint64_t hi = std::uint64_t{1} << 53;
    // Each rounding is off by at most a relative 2^-53, so the cutoff
    // lies within a draw or two of this guess. Both bounds are checked
    // exactly, so a poor guess costs only the full search.
    const double guess = cumulative / weight_sum * 0x1.0p53;
    if (guess > 16.0 && guess < 0x1.0p53 - 16.0) {
        const auto g = static_cast<std::uint64_t>(guess);
        if (below(g - 16))
            lo = g - 15;
        if (!below(g + 16))
            hi = g + 16;
    }
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (below(mid))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

}  // namespace

void
Masim::prepare_phase(std::size_t index)
{
    phase_index_ = index;
    const MasimPhase& phase = spec_.phases[index];
    remaining_in_phase_ = phase.accesses;
    // A draw picks the first region whose cumulative weight its pick is
    // below, or else the last region, which therefore needs no cutoff.
    double weight_sum = 0.0;
    for (const auto& r : phase.regions)
        weight_sum += r.weight;
    prepared_.clear();
    cutoffs_.clear();
    double cumulative = 0.0;
    for (const auto& r : phase.regions) {
        PreparedRegion p;
        p.first_page = static_cast<PageId>(r.offset / page_size_);
        const Bytes last = r.offset + r.size - 1;
        p.page_span =
            static_cast<PageId>(last / page_size_) - p.first_page + 1;
        p.sequential = r.sequential;
        prepared_.push_back(p);
        cumulative += r.weight;
        if (prepared_.size() < phase.regions.size())
            cutoffs_.push_back(pick_cutoff(cumulative, weight_sum));
    }
}

void
Masim::fill_phase(PageId* out, std::size_t count)
{
    // The Rng lives in a local for the whole run, so its state stays in
    // registers instead of being stored back on every draw.
    Rng rng = rng_;
    PreparedRegion* const regions = prepared_.data();
    const std::uint64_t* const cutoffs = cutoffs_.data();
    const std::size_t cutoff_count = cutoffs_.size();
    for (PageId* const end = out + count; out != end; ++out) {
        PreparedRegion& region =
            regions[region_of(rng.next() >> 11, cutoffs, cutoff_count)];
        if (region.sequential) {
            *out = region.first_page + region.cursor;
            if (++region.cursor == region.page_span)
                region.cursor = 0;
        } else {
            *out = region.first_page +
                   static_cast<PageId>(rng.next_below(region.page_span));
        }
    }
    rng_ = rng;
}

std::size_t
Masim::fill(std::span<PageId> out)
{
    // The batch is split only at phase ends.
    std::size_t produced = 0;
    while (produced < out.size()) {
        if (remaining_in_phase_ == 0) {
            if (phase_index_ + 1 >= spec_.phases.size())
                break;
            prepare_phase(phase_index_ + 1);
        }
        const auto count = static_cast<std::size_t>(std::min<std::uint64_t>(
            remaining_in_phase_, out.size() - produced));
        fill_phase(out.data() + produced, count);
        produced += count;
        remaining_in_phase_ -= count;
    }
    return produced;
}

namespace {

/**
 * The bytes of region field @p field (@p mib MiB), fatal naming @p key
 * unless it lies within [0, footprint]: a negative double or one past
 * 2^64 bytes would cast to garbage.
 */
Bytes
region_bytes(const std::string& key, const char* field, double mib,
             Bytes footprint)
{
    if (!(mib >= 0.0))
        fatal("masim spec: ", key, ": ", field, " must not be negative");
    // footprint is a whole number of MiB, so this compares exactly.
    if (mib > static_cast<double>(footprint >> 20))
        fatal("masim spec: ", key, ": ", field, " ", mib,
              " MiB is out of range (footprint_mib ", footprint >> 20, ")");
    return static_cast<Bytes>(mib * (1 << 20));
}

}  // namespace

MasimSpec
Masim::parse_spec(const KvConfig& config)
{
    MasimSpec spec;
    spec.name = config.get_string("name", "masim");
    spec.footprint =
        config.get_uint<Bytes>("footprint_mib", 0, ~Bytes{0} >> 20) << 20;
    // Every phase and every region needs a key of its own, so no count
    // above the number of keys can be well formed.
    const std::size_t max_count = config.size();
    const auto phase_count =
        config.get_uint<std::size_t>("phases", 0, max_count);
    if (phase_count == 0)
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
    for (std::size_t i = 0; i < phase_count; ++i) {
        const std::string prefix = "phase" + std::to_string(i) + ".";
        MasimPhase phase;
        phase.accesses =
            config.get_uint<std::uint64_t>(prefix + "accesses", 0);
        const auto regions =
            config.get_uint<std::size_t>(prefix + "regions", 0, max_count);
        for (std::size_t r = 0; r < regions; ++r) {
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
            region.offset =
                region_bytes(key, "offset", offset_mib, spec.footprint);
            region.size = region_bytes(key, "size", size_mib, spec.footprint);
            if (region.size > spec.footprint - region.offset)
                fatal("masim spec: ", key,
                      ": region ends past footprint_mib ",
                      spec.footprint >> 20);
            region.weight = weight;
            region.sequential = seq == "seq";
            phase.regions.push_back(region);
        }
        spec.phases.push_back(std::move(phase));
    }
    return spec;
}

}  // namespace artmem::workloads
