/**
 * @file
 * In-memory span log for the traced benchmark pass.
 *
 * A span is one timed call into a layer's public API, recorded from the
 * benchmark's own driver loop (never from inside src/). Each span has a
 * site (which boundary), host start/end times, its parent span and the
 * id of the benchmark repetition it belongs to. Spans stay in memory
 * until the run ends; self time is computed afterwards as a span's
 * duration minus the part of that interval its child spans cover.
 */
#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

namespace perfbench {

/** Every boundary the traced driver times, in call order. */
enum class Site : std::uint8_t {
    kMap,                 // sweep::SweepRunner::map over the repetition
    kJob,                 // one simulation job inside map
    kConstructWorkload,   // generator or tenant set
    kConstructMachine,    // TieredMachine (+ tenant ledger)
    kConstructPolicy,     // sim::make_policy
    kRun,                 // the mirrored run_simulation driver loop
    kPrefault,            // TieredMachine::prefault_range
    kPolicyInit,          // Policy::init
    kFill,                // AccessGenerator::fill
    kAccess,              // TieredMachine::access_batch(_faulted)
    kDrain,               // PebsSampler::drain
    kNoteSamples,         // TenantLedger::note_sample over a drain
    kOnSamples,           // Policy::on_samples
    kOnTick,              // Policy::on_tick
    kPollTx,              // TieredMachine::poll_tx
    kOnInterval,          // Policy::on_interval
    kIntervalFeedback,    // TenantLedger::interval_feedback
    kTakeWindow,          // TieredMachine::take_window
    kAudit,               // verify::InvariantChecker::audit
    kCount,
};

inline constexpr std::size_t kSiteCount = static_cast<std::size_t>(Site::kCount);

/** Span names, "<layer>.<call>", indexed by Site. */
inline constexpr std::array<std::string_view, kSiteCount> kSiteNames = {
    "sweep.map",         "sweep.job",          "workloads.construct",
    "memsim.construct",  "policies.construct", "sim.run",
    "memsim.prefault",   "policies.init",      "workloads.fill",
    "memsim.access",     "memsim.pebs_drain",  "tenancy.note_sample",
    "policies.on_samples", "policies.on_tick", "memsim.poll_tx",
    "policies.on_interval", "tenancy.interval_feedback",
    "sim.take_window",   "verify.audit",
};

/** Layer of a site: the name up to the first '.'. */
inline std::string_view
site_layer(Site site)
{
    const std::string_view name = kSiteNames[static_cast<std::size_t>(site)];
    return name.substr(0, name.find('.'));
}

using Clock = std::chrono::steady_clock;

/** Host nanoseconds since the steady clock's epoch. */
inline std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

inline constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

struct Span {
    Site site;
    std::uint32_t parent;
    std::uint64_t run_id;
    std::int64_t start_ns;
    std::int64_t end_ns;
};

/**
 * Append-only span recorder for one thread. Nesting follows scope: a
 * Scope opened while another is open becomes its child.
 */
class SpanLog
{
  public:
    /**
     * RAII span: opens on construction, closes on destruction. A null
     * log records nothing, so untraced callers share the same code.
     */
    class Scope
    {
      public:
        Scope(SpanLog* log, Site site)
            : log_(log), index_(log != nullptr ? log->open(site) : 0)
        {
        }
        ~Scope()
        {
            if (log_ != nullptr)
                log_->close(index_);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        SpanLog* log_;
        std::uint32_t index_;
    };

    void set_run_id(std::uint64_t id) { run_id_ = id; }

    const std::vector<Span>& spans() const { return spans_; }

    /**
     * Append @p other's spans, re-parenting its roots under @p parent
     * (an index into this log, or kNoParent).
     */
    void append(const SpanLog& other, std::uint32_t parent);

    /** One JSON object per span, one per line. */
    void write_jsonl(std::ostream& out) const;

  private:
    std::uint32_t open(Site site);
    void close(std::uint32_t index);

    std::vector<Span> spans_;
    std::uint32_t current_ = kNoParent;
    std::uint64_t run_id_ = 0;
};

/**
 * Self time of every span in @p spans (ns): its duration minus the
 * union of its children's intervals clipped to it.
 */
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_HPP
