/**
 * @file
 * ArtMem: the paper's reinforcement-learning tiered-memory manager.
 *
 * Two tabular TD agents share the discretized fast-tier access-ratio
 * state (Equation 1, k=10 plus a dedicated no-sample state):
 *
 *  - the *migration agent* picks the migration number — how many bytes
 *    may move this period, from {0, 16 MB, 32 MB, ..., 4096 MB};
 *  - the *threshold agent* adjusts the hotness threshold by
 *    {-8, -4, 0, +4, +8} sampled accesses, never below the heuristic
 *    minimum of 16 (Section 5).
 *
 * Both learn from the reward of Equation 2,
 *     r = tau_i - beta + lambda * (tau_i - tau_{i-1}),
 * where lambda is 1 only if the previous period migrated pages.
 *
 * Hotness comes from PEBS-sampled EMA bins (cooled every 2M samples at
 * paper scale; the threshold is reset to the capacity-derived value
 * after each cooling). Recency comes from active/inactive LRU lists fed
 * by the sampled stream: promotion candidates are drawn from the head
 * of the slow tier's active list, demotion victims from the tail of the
 * fast tier's inactive list, and every migrated page is inserted at the
 * head of the fast active list (the paper's aggressive re-insertion).
 *
 * Ablation switches (Figure 8) can disable the RL scope control, the
 * recency sorting, and the dynamic threshold independently; Section
 * 6.3.4's latency-based reward and Section 6.3.5's SARSA variant are
 * selectable.
 */
#ifndef ARTMEM_CORE_ARTMEM_HPP
#define ARTMEM_CORE_ARTMEM_HPP

#include <memory>
#include <string>
#include <vector>

#include "lru/lru_lists.hpp"
#include "policies/policy.hpp"
#include "rl/agent.hpp"
#include "stats/access_ratio.hpp"
#include "stats/ema_bins.hpp"

namespace artmem::core {

/** Reward signal variant (Section 6.3.4). */
enum class RewardMode {
    kAccessRatio,  ///< Default: discretized fast-tier access ratio.
    kLatency,      ///< EMA of sampled access latency (lags behind).
};

/** Full ArtMem configuration; defaults are the paper's (Section 5). */
struct ArtMemConfig {
    /** RL hyperparameters (alpha=e^-2, gamma=e^-1, epsilon=0.3). */
    rl::AgentConfig agent;
    /** Access-ratio discretization granularity (states 0..k, +1 extra). */
    int k = 10;
    /** Desired fast-tier access-ratio term of the reward, on tau scale. */
    double beta = 9.0;
    /** Samples between cooling events (2M at paper scale; scaled here). */
    std::uint64_t cooling_period = 200000;
    /** Heuristic minimum hotness threshold (sampled accesses). */
    std::uint32_t min_threshold = 16;
    /** Upper clamp for the threshold. */
    std::uint32_t max_threshold = 1u << 15;
    /** Threshold-agent action set (sampled-access deltas). */
    std::vector<int> threshold_deltas = {-8, -4, 0, 4, 8};
    /** Migration-agent action set (MiB per period; index 0 must be 0). */
    std::vector<Bytes> migration_sizes_mib = {0,   16,  32,   64,   128,
                                              256, 512, 1024, 2048, 4096};
    /** Reward signal. */
    RewardMode reward_mode = RewardMode::kAccessRatio;
    /** EMA weight of the latency reward (smaller = more lag; the
     *  pending-request proxy of Section 6.3.4 reacts with a delay). */
    double latency_ema_weight = 0.08;
    /** Ablation: RL scope control (false = MEMTIS-style heuristic). */
    bool use_rl = true;
    /** Ablation: LRU recency sorting of candidates/victims. */
    bool use_sorting = true;
    /** Ablation: dynamic threshold adjustment. */
    bool use_dynamic_threshold = true;
    /** Exploration RNG seed. */
    std::uint64_t seed = 42;
};

/** The ArtMem policy. */
class ArtMem final : public policies::Policy
{
  public:
    ArtMem();
    explicit ArtMem(const ArtMemConfig& config);

    std::string_view name() const override { return "artmem"; }

    void init(memsim::TieredMachine& machine) override;
    void on_samples(std::span<const memsim::PebsSample> samples) override;
    void on_interval(SimTimeNs now) override;
    void on_tx_resolved(PageId page, memsim::Tier src, memsim::Tier dst,
                        bool committed) override;
    void set_telemetry(telemetry::Telemetry* telemetry) override;

    /** Hotness threshold currently in force. */
    std::uint32_t current_threshold() const { return threshold_; }

    /** The migration-number agent (Q-table inspection / Fig. 14). */
    rl::TdAgent& migration_agent() { return *migration_agent_; }

    /** Read-only migration agent (invariant audits). */
    const rl::TdAgent& migration_agent() const { return *migration_agent_; }

    /** The threshold agent. */
    rl::TdAgent& threshold_agent() { return *threshold_agent_; }

    /** Read-only threshold agent. */
    const rl::TdAgent& threshold_agent() const { return *threshold_agent_; }

    /** True once init() built the per-run structures. */
    bool initialized() const { return bins_ != nullptr; }

    /** Histogram access (tests). */
    const stats::EmaBins& bins() const { return *bins_; }

    /** LRU lists access (tests). */
    const lru::LruLists& lists() const { return *lists_; }

    /** Configuration in use. */
    const ArtMemConfig& config() const { return config_; }

    /** Decision periods elapsed. */
    std::uint64_t periods() const { return periods_; }

    /**
     * Export both Q-tables as one text blob (Fig. 14 cross-training).
     */
    void save_qtables(std::ostream& os) const;

    /**
     * Import Q-tables previously produced by save_qtables(). A
     * malformed, truncated, non-finite, or dimension-mismatched blob is
     * recoverable: warn() and keep the current (cold-start) tables.
     * @return true if both tables were installed.
     */
    bool load_qtables(std::istream& is);

    /**
     * Check a save_qtables() blob against the table shapes @p config
     * implies, installing nothing: for callers that must reject a bad
     * file up front instead of running from a cold start.
     * @return empty if load_qtables() would install the tables, else
     *         why not, naming the table and the bad entry or shape.
     */
    static std::string check_qtables(std::istream& is,
                                     const ArtMemConfig& config);

    /**
     * Provide Q-tables (the save_qtables() text format) to be installed
     * right after the next init() — i.e. start the run from a converged
     * table instead of Algorithm 1's cold start. Used by the Figure 14
     * cross-training robustness study.
     */
    void set_pretrained_qtables(std::string blob)
    {
        pretrained_ = std::move(blob);
    }

  private:
    /** Test-only back door to the candidate search (tests/
     *  test_diff_model.cpp). Never defined in the library. */
    friend struct ArtMemTestPeer;

    int state_count() const { return config_.k + 2; }
    void attach_agent_telemetry();
    double tau_for_reward(const stats::TauState& tau) const;
    double latency_tau() const;
    void apply_threshold_action(int action);
    std::size_t perform_migration(Bytes budget);
    void promote_round(const std::vector<PageId>& round,
                       std::size_t& promoted, std::size_t& faulted);
    std::size_t collect_promotion_candidates(std::size_t want,
                                             std::vector<PageId>& out);
    std::size_t collect_indexed_candidates(std::size_t want,
                                           std::size_t first,
                                           std::vector<PageId>& out);
    std::size_t demote_for_room(std::size_t need);
    bool backed_off(PageId page) const
    {
        return retry_after_[page] > periods_;
    }
    /** The walk's test, one page at a time: hot enough and movable. */
    bool promotable(PageId page) const;
    void note_migration_success(PageId page);
    void note_migration_failure(PageId page, memsim::MigrationResult result);

    ArtMemConfig config_;
    std::unique_ptr<stats::EmaBins> bins_;
    std::unique_ptr<lru::LruLists> lists_;
    std::unique_ptr<stats::AccessRatioTracker> tracker_;
    std::unique_ptr<rl::TdAgent> migration_agent_;
    std::unique_ptr<rl::TdAgent> threshold_agent_;
    std::uint32_t threshold_ = 16;
    double tau_prev_ = 0.0;
    std::uint64_t migrated_last_period_ = 0;
    std::uint64_t periods_ = 0;
    PageId cold_scan_cursor_ = 0;
    // Latency-reward bookkeeping.
    double latency_ema_ns_ = 0.0;
    SimTimeNs window_latency_sum_ = 0;
    std::uint64_t window_latency_samples_ = 0;
    SimTimeNs last_migration_busy_ns_ = 0;
    std::vector<PageId> candidate_scratch_;
    std::string pretrained_;
    // Fault resilience: per-page failure streaks and the period after
    // which a failed page may be retried (exponential backoff; pinned
    // pages get a long sentence). All-zero in fault-free runs, so the
    // backoff checks never change fault-free behaviour. Periods are
    // held as u32, which pays for the LRU position stamp per page;
    // on_interval() stops the run before a retry period could wrap.
    std::vector<std::uint8_t> fail_streak_;
    std::vector<std::uint32_t> retry_after_;
};

}  // namespace artmem::core

#endif  // ARTMEM_CORE_ARTMEM_HPP
