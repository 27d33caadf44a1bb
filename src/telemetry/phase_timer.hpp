/**
 * @file
 * Wall-clock phase profiling (DESIGN.md §8). PhaseTimer attributes
 * *host* time to engine phases; the results feed a per-run profile
 * table only. They are deliberately excluded from traces, metrics
 * files, and every determinism check — wall clock is nondeterministic
 * by nature, and the repo lint confines clock reads to phase_timer.cpp
 * (the only allowlisted file).
 */
#ifndef ARTMEM_TELEMETRY_PHASE_TIMER_HPP
#define ARTMEM_TELEMETRY_PHASE_TIMER_HPP

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string_view>

namespace artmem::telemetry {

/** Engine phases host time is attributed to. */
enum class Phase : std::uint8_t {
    kGenerate,  ///< Workload batch generation.
    kAccess,    ///< Memory-access replay through the machine.
    kTick,      ///< Sampler drain + policy on_samples/on_tick.
    kDecision,  ///< Policy on_interval + window bookkeeping.
    kAudit,     ///< Invariant checker sweeps.
};

inline constexpr std::size_t kPhaseCount = 5;

std::string_view phase_name(Phase phase);

/** Accumulated host-time totals per phase for one run (or merged). */
class PhaseProfiler
{
  public:
    void add(Phase phase, std::uint64_t ns)
    {
        const auto i = static_cast<std::size_t>(phase);
        totals_ns_[i] += ns;
        ++counts_[i];
    }

    void merge(const PhaseProfiler& other);

    std::uint64_t total_ns() const;
    std::uint64_t phase_ns(Phase phase) const
    {
        return totals_ns_[static_cast<std::size_t>(phase)];
    }

    /** Human-readable profile table (phase, calls, ms, share). */
    void write_table(std::ostream& os) const;

  private:
    std::array<std::uint64_t, kPhaseCount> totals_ns_{};
    std::array<std::uint64_t, kPhaseCount> counts_{};
};

/**
 * RAII scope timer. Construction and destruction live in
 * phase_timer.cpp so the wall-clock read stays in the one allowlisted
 * translation unit; a null profiler skips the clock read entirely
 * (the zero-cost-when-off path).
 */
class PhaseTimer
{
  public:
    PhaseTimer(PhaseProfiler* profiler, Phase phase);
    ~PhaseTimer();

    PhaseTimer(const PhaseTimer&) = delete;
    PhaseTimer& operator=(const PhaseTimer&) = delete;

  private:
    PhaseProfiler* profiler_;
    Phase phase_;
    std::uint64_t start_ns_ = 0;
};

}  // namespace artmem::telemetry

#endif  // ARTMEM_TELEMETRY_PHASE_TIMER_HPP
