/**
 * @file
 * Structured event tracing keyed by *simulated* time (DESIGN.md §8).
 *
 * A TraceSink buffers events in memory during a run and serializes
 * afterwards, in two formats from the same buffer:
 *   - JSONL: one event object per line, for grep/jq-style analysis and
 *     the golden-trace tests;
 *   - Chrome trace-event JSON ({"traceEvents": [...]}), loadable in
 *     Perfetto / chrome://tracing, with one named track per category.
 *
 * Timestamps are simulated nanoseconds from TieredMachine::now(); the
 * sink never reads a wall clock, so traces are bit-identical across
 * runs and across `--jobs 1` vs `--jobs N` (per-job sinks, merged in
 * job order by the sweep layer).
 */
#ifndef ARTMEM_TELEMETRY_TRACE_HPP
#define ARTMEM_TELEMETRY_TRACE_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace artmem::telemetry {

/** Event categories; bit flags so a run can enable any subset. */
enum class Category : std::uint32_t {
    kEngine = 1u << 0,     ///< Simulation ticks and decision intervals.
    kMigration = 1u << 1,  ///< Page migrations: start/complete/fail.
    kPebs = 1u << 2,       ///< Sampler drains, drops, blackout windows.
    kRl = 1u << 3,         ///< RL state/action/reward and Q updates.
    kThreshold = 1u << 4,  ///< Hot-threshold moves and resets.
};

inline constexpr std::uint32_t kAllCategories = 0x1f;

/** Stable lowercase name ("engine", "migration", ...). */
std::string_view category_name(Category cat);

/** Track index for Chrome output: the category's bit position. */
unsigned category_track(Category cat);

/**
 * Parse a --trace-categories value: "all", "none", or a comma list of
 * category names. Unknown names are fatal (mirrors BenchOptions'
 * strict flag handling).
 */
std::uint32_t parse_categories(std::string_view csv);

/**
 * Builder for an event's JSON args object. The explicit fixed-width
 * overload set keeps call sites unambiguous and -Wconversion-clean
 * under ARTMEM_STRICT.
 */
class Args
{
  public:
    Args& add(std::string_view key, std::uint64_t value);
    Args& add(std::string_view key, std::int64_t value);
    Args& add(std::string_view key, std::uint32_t value);
    Args& add(std::string_view key, std::int32_t value);
    Args& add(std::string_view key, double value);
    Args& add(std::string_view key, std::string_view value);
    Args& add(std::string_view key, const char* value);

    /** Finished JSON object, e.g. {"page":12,"reason":"pinned"}. */
    std::string str();

  private:
    void key(std::string_view k);
    std::string body_;
};

/** In-memory event buffer for one run (one job = one sink shard). */
class TraceSink
{
  public:
    explicit TraceSink(std::uint32_t categories) : categories_(categories) {}

    bool enabled(Category cat) const
    {
        return (categories_ & static_cast<std::uint32_t>(cat)) != 0;
    }

    /**
     * Simulated-time cursor for emitters without a clock of their own
     * (the RL agent); the engine advances it at tick/decision edges.
     */
    void set_sim_time(std::uint64_t now_ns) { sim_time_ = now_ns; }
    std::uint64_t sim_time() const { return sim_time_; }

    /** Point event (Chrome phase 'i'). */
    void instant(Category cat, std::string_view name, std::uint64_t ts_ns,
                 std::string args = "{}");

    /** Duration event (Chrome phase 'X'); @p ts_ns is the start. */
    void complete(Category cat, std::string_view name, std::uint64_t ts_ns,
                  std::uint64_t dur_ns, std::string args = "{}");

    std::size_t event_count() const { return events_.size(); }

    /**
     * One JSON object per line, in emission order. @p job >= 0 adds a
     * "job" field (sweep merges tag each shard's lines this way).
     */
    void write_jsonl(std::ostream& os, int job = -1) const;

    /** Complete Chrome trace document for a single run (pid 0). */
    void write_chrome(std::ostream& os) const;

    /**
     * Append this sink's events to an open traceEvents array using
     * @p pid as the process id (one pid per sweep job). Emits the
     * per-track metadata first. @p first tracks array comma state.
     */
    void append_chrome_events(std::ostream& os, int pid, bool& first) const;

  private:
    struct Event {
        std::uint64_t ts_ns;
        std::uint64_t dur_ns;  ///< 0 for instant events.
        Category cat;
        char phase;  ///< 'i' or 'X' (Chrome phase letter).
        std::string name;
        std::string args;
    };

    std::uint32_t categories_;
    std::uint64_t sim_time_ = 0;
    std::vector<Event> events_;
};

}  // namespace artmem::telemetry

#endif  // ARTMEM_TELEMETRY_TRACE_HPP
