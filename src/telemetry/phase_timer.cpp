// The single translation unit where the telemetry subsystem may read a
// wall clock (enforced by the scripts/check_lint.sh path allowlist).
// Host time measured here feeds the --profile table only; it never
// reaches traces, metrics files, or any determinism-checked output.
#include "telemetry/phase_timer.hpp"

#include <chrono>
#include <cstdio>
#include <ostream>

namespace artmem::telemetry {

namespace {

std::uint64_t
wall_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

constexpr std::array<std::string_view, kPhaseCount> kPhaseNames = {
    "generate", "access", "tick", "decision", "audit"};

}  // namespace

std::string_view
phase_name(Phase phase)
{
    return kPhaseNames[static_cast<std::size_t>(phase)];
}

void
PhaseProfiler::merge(const PhaseProfiler& other)
{
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
        totals_ns_[i] += other.totals_ns_[i];
        counts_[i] += other.counts_[i];
    }
}

std::uint64_t
PhaseProfiler::total_ns() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t ns : totals_ns_)
        total += ns;
    return total;
}

void
PhaseProfiler::write_table(std::ostream& os) const
{
    const std::uint64_t total = total_ns();
    os << "phase profile (host wall clock; excluded from determinism "
          "checks)\n";
    os << "  phase      calls        ms   share\n";
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
        const double ms = static_cast<double>(totals_ns_[i]) / 1e6;
        const double share =
            total == 0 ? 0.0
                       : 100.0 * static_cast<double>(totals_ns_[i]) /
                             static_cast<double>(total);
        char line[96];
        std::snprintf(line, sizeof line, "  %-9s %7llu %9.2f  %5.1f%%\n",
                      std::string(kPhaseNames[i]).c_str(),
                      static_cast<unsigned long long>(counts_[i]), ms,
                      share);
        os << line;
    }
    char totline[64];
    std::snprintf(totline, sizeof totline, "  total             %9.2f\n",
                  static_cast<double>(total) / 1e6);
    os << totline;
}

PhaseTimer::PhaseTimer(PhaseProfiler* profiler, Phase phase)
    : profiler_(profiler), phase_(phase)
{
    if (profiler_ != nullptr)
        start_ns_ = wall_ns();
}

PhaseTimer::~PhaseTimer()
{
    if (profiler_ != nullptr)
        profiler_->add(phase_, wall_ns() - start_ns_);
}

}  // namespace artmem::telemetry
