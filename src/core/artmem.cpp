#include "core/artmem.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>

#include "util/logging.hpp"
#include "util/rng.hpp"

namespace artmem::core {

using memsim::Tier;

namespace {

/** The longest failure backoff, in periods: a pinned page's, and a
 *  denied page's at its capped streak. */
constexpr std::uint64_t kLongestBackoff = 256;

/** Period @p backoff periods after @p now, as retry_after_ stores it
 *  (on_interval() keeps it from wrapping). */
std::uint32_t
retry_period(std::uint64_t now, std::uint64_t backoff)
{
    return static_cast<std::uint32_t>(now + backoff);
}

}  // namespace

ArtMem::ArtMem() : ArtMem(ArtMemConfig{}) {}

ArtMem::ArtMem(const ArtMemConfig& config) : config_(config)
{
    if (config_.k <= 0)
        fatal("ArtMem: k must be positive");
    if (config_.migration_sizes_mib.empty() ||
        config_.migration_sizes_mib.front() != 0) {
        fatal("ArtMem: migration size action 0 must be 'no migration'");
    }
    if (config_.threshold_deltas.empty())
        fatal("ArtMem: threshold action set must not be empty");
    if (config_.min_threshold == 0 ||
        config_.min_threshold > config_.max_threshold) {
        fatal("ArtMem: invalid threshold clamp range");
    }
}

void
ArtMem::init(memsim::TieredMachine& machine)
{
    Policy::init(machine);
    const std::size_t pages = machine.page_count();
    // threshold_ never falls below min_threshold, so the bins' hot
    // index at that floor holds every page a candidate search can keep.
    bins_ = std::make_unique<stats::EmaBins>(pages, config_.cooling_period,
                                             config_.min_threshold);
    lists_ = std::make_unique<lru::LruLists>(pages);
    tracker_ = std::make_unique<stats::AccessRatioTracker>(config_.k);

    const int states = state_count();
    // Derive the exploration streams from the whole configuration, not
    // just the seed: two variants (e.g. the two reward modes of Section
    // 6.3.4) would otherwise explore in perfect lockstep and could never
    // produce different trajectories.
    std::uint64_t seed_state =
        config_.seed ^ (static_cast<std::uint64_t>(config_.reward_mode)
                        << 32);
    const std::uint64_t seed_a = splitmix64(seed_state);
    const std::uint64_t seed_b = splitmix64(seed_state);
    migration_agent_ = std::make_unique<rl::TdAgent>(
        states, static_cast<int>(config_.migration_sizes_mib.size()),
        config_.agent, seed_a);
    threshold_agent_ = std::make_unique<rl::TdAgent>(
        states, static_cast<int>(config_.threshold_deltas.size()),
        config_.agent, seed_b);

    // Algorithm 1 line 1: the program loads from DRAM, so the initial
    // state is k and the no-migration action is primed with Q = 1.
    migration_agent_->table().at(config_.k, 0) = 1.0;
    const auto no_delta = std::find(config_.threshold_deltas.begin(),
                                    config_.threshold_deltas.end(), 0);
    const int no_delta_action =
        no_delta == config_.threshold_deltas.end()
            ? 0
            : static_cast<int>(no_delta - config_.threshold_deltas.begin());
    migration_agent_->reset(config_.k, 0);
    threshold_agent_->reset(config_.k, no_delta_action);

    // The engine attaches telemetry before init(); the agents only
    // exist from here on, so the forwarding happens in both places.
    attach_agent_telemetry();

    if (!pretrained_.empty()) {
        std::istringstream is(pretrained_);
        load_qtables(is);
    }

    threshold_ = config_.min_threshold;
    tau_prev_ = static_cast<double>(config_.k);
    migrated_last_period_ = 0;
    periods_ = 0;
    cold_scan_cursor_ = 0;
    latency_ema_ns_ =
        static_cast<double>(machine.config().tiers[0].load_latency_ns);
    window_latency_sum_ = 0;
    window_latency_samples_ = 0;
    last_migration_busy_ns_ = 0;
    fail_streak_.assign(pages, 0);
    retry_after_.assign(pages, 0);
}

void
ArtMem::set_telemetry(telemetry::Telemetry* telemetry)
{
    Policy::set_telemetry(telemetry);
    attach_agent_telemetry();
}

void
ArtMem::attach_agent_telemetry()
{
    telemetry::TraceSink* sink = trace(telemetry::Category::kRl);
    if (migration_agent_ != nullptr)
        migration_agent_->set_telemetry(sink, "migration");
    if (threshold_agent_ != nullptr)
        threshold_agent_->set_telemetry(sink, "threshold");
}

void
ArtMem::on_samples(std::span<const memsim::PebsSample> samples)
{
    auto& m = machine();
    // Per-batch invariants hoisted out of the sample loop: the two tier
    // latencies, the sorting flag, and local accumulators for sums that
    // are pure integer additions (order-independent, so accumulating
    // locally is bit-identical to the per-sample updates).
    const SimTimeNs lat[memsim::kTierCount] = {
        m.config().tiers[0].load_latency_ns,
        m.config().tiers[1].load_latency_ns,
    };
    const bool sorting = config_.use_sorting;
    SimTimeNs latency_sum = 0;
    for (const auto& s : samples) {
        bins_->record(s.page);
        tracker_->record(s.tier);
        // Sort on the page's *current* tier, not the tier recorded at
        // sample time: the sample may have sat in the PEBS buffer across
        // a migration interval, and touch() re-homes the page to
        // whichever tier it is told, so a stale s.tier would link a
        // migrated page onto the wrong tier's LRU list (caught by
        // verify::Invariant::kLruResidency). A sampled page was
        // necessarily accessed, hence allocated: the unchecked read is
        // safe.
        if (sorting)
            lists_->touch(s.page, m.tier_of_unchecked(s.page));
        latency_sum += lat[static_cast<int>(s.tier)];
    }
    window_latency_sum_ += latency_sum;
    window_latency_samples_ += samples.size();
    if (bins_->cooling_due()) {
        bins_->cool();
        // The threshold is re-derived from capacity after each cooling;
        // the RL agent refines it between coolings (Section 4.3).
        threshold_ = std::max(
            config_.min_threshold,
            bins_->capacity_threshold(m.capacity_pages(Tier::kFast)));
        if (auto* t = trace(telemetry::Category::kThreshold)) {
            t->instant(telemetry::Category::kThreshold, "reset",
                       t->sim_time(),
                       telemetry::Args()
                           .add("threshold", threshold_)
                           .str());
        }
    }
}

double
ArtMem::tau_for_reward(const stats::TauState& tau) const
{
    // The no-sample state carries no memory-pressure signal; treat it
    // as "all fast" for reward purposes (no accesses -> no stalls).
    if (tau.state == config_.k + 1)
        return static_cast<double>(config_.k);
    return static_cast<double>(tau.state);
}

double
ArtMem::latency_tau() const
{
    const auto& cfg = machine().config();
    const auto fast =
        static_cast<double>(cfg.tiers[0].load_latency_ns);
    const auto slow =
        static_cast<double>(cfg.tiers[1].load_latency_ns);
    if (slow <= fast)
        return static_cast<double>(config_.k);
    const double scaled =
        (slow - latency_ema_ns_) / (slow - fast) * config_.k;
    return std::clamp(scaled, 0.0, static_cast<double>(config_.k));
}

void
ArtMem::apply_threshold_action(int action)
{
    const int delta = config_.threshold_deltas[static_cast<std::size_t>(action)];
    const long long next = static_cast<long long>(threshold_) + delta;
    threshold_ = static_cast<std::uint32_t>(
        std::clamp<long long>(next, config_.min_threshold,
                              config_.max_threshold));
    if (auto* t = trace(telemetry::Category::kThreshold)) {
        t->instant(telemetry::Category::kThreshold, "move", t->sim_time(),
                   telemetry::Args()
                       .add("delta", delta)
                       .add("threshold", threshold_)
                       .str());
    }
}

bool
ArtMem::promotable(PageId page) const
{
    const auto& m = machine();
    return bins_->count(page) >= threshold_ && m.is_allocated(page) &&
           m.tier_of_unchecked(page) == Tier::kSlow && !backed_off(page) &&
           !m.tx_page_inflight(page);
}

std::size_t
ArtMem::collect_promotion_candidates(std::size_t want,
                                     std::vector<PageId>& out)
{
    if (!config_.use_sorting) {
        // Ablation: frequency-only selection, hottest first.
        candidate_scratch_.clear();
        bins_->collect_at_or_above(threshold_, candidate_scratch_);
        std::sort(candidate_scratch_.begin(), candidate_scratch_.end(),
                  [this](PageId a, PageId b) {
                      return bins_->count(a) > bins_->count(b);
                  });
        for (PageId page : candidate_scratch_) {
            if (out.size() >= want)
                break;
            if (promotable(page))
                out.push_back(page);
        }
        return out.size();
    }
    // Recency-first: walk the slow tier's active list from the MRU head,
    // keeping only pages above the hotness threshold, then fall back to
    // the inactive list (Section 4.3, step V). Pages inside their
    // failure backoff window are skipped: retrying a pinned or
    // recently-aborted page burns budget for nothing.
    //
    // Every page the walk keeps is in the bins' hot index (threshold_ is
    // at least its floor), so a walk longer than the index is mostly
    // passing over cold pages: stop it there and pick the same pages,
    // in the same order, from the index instead (DESIGN.md §9).
    const std::size_t first = out.size();
    std::size_t budget = bins_->hot_pages().size();
    for (lru::ListId list :
         {lru::ListId::kSlowActive, lru::ListId::kSlowInactive}) {
        for (PageId page = lists_->head(list);
             page != kInvalidPage && out.size() < want;
             page = lists_->next(page)) {
            if (budget-- == 0)
                return collect_indexed_candidates(want, first, out);
            if (promotable(page))
                out.push_back(page);
        }
        if (out.size() >= want)
            break;
    }
    return out.size();
}

std::size_t
ArtMem::collect_indexed_candidates(std::size_t want, std::size_t first,
                                   std::vector<PageId>& out)
{
    out.resize(first);
    candidate_scratch_.clear();
    for (PageId page : bins_->hot_pages()) {
        const lru::ListId at = lists_->where(page);
        if ((at == lru::ListId::kSlowActive ||
             at == lru::ListId::kSlowInactive) &&
            promotable(page)) {
            candidate_scratch_.push_back(page);
        }
    }
    // The walk's order: the active list before the inactive one, each
    // from the head, which is descending position stamp.
    const auto walk_order = [this](PageId a, PageId b) {
        const bool a_active = lists_->where(a) == lru::ListId::kSlowActive;
        const bool b_active = lists_->where(b) == lru::ListId::kSlowActive;
        if (a_active != b_active)
            return a_active;
        return lists_->stamp(a) > lists_->stamp(b);
    };
    auto end = candidate_scratch_.end();
    if (candidate_scratch_.size() > want - first) {
        end = candidate_scratch_.begin() +
              static_cast<std::ptrdiff_t>(want - first);
        std::nth_element(candidate_scratch_.begin(), end,
                         candidate_scratch_.end(), walk_order);
    }
    std::sort(candidate_scratch_.begin(), end, walk_order);
    out.insert(out.end(), candidate_scratch_.begin(), end);
    return out.size();
}

void
ArtMem::note_migration_success(PageId page)
{
    if (fail_streak_[page] != 0) {
        fail_streak_[page] = 0;
        retry_after_[page] = 0;
    }
}

void
ArtMem::note_migration_failure(PageId page, memsim::MigrationResult result)
{
    if (result.pinned()) {
        // Retries are futile; park the page for a long time. (Not
        // forever: the injector is opaque to the policy, and a real
        // kernel would eventually unpin.)
        fail_streak_[page] = 255;
        retry_after_[page] = retry_period(periods_, kLongestBackoff);
        return;
    }
    if (result.denied()) {
        // Tenancy refusal (quota exhausted or admission denied): the
        // obstacle is standing resource policy, not device luck, so
        // back off harder than for a transient — the quota only opens
        // when the tenant's own pages demote, and admission budgets
        // refill once per decision interval.
        const std::uint8_t streak = static_cast<std::uint8_t>(
            std::min<int>(fail_streak_[page] + 2, 8));
        fail_streak_[page] = streak;
        retry_after_[page] = retry_period(periods_, 1ull << streak);
        return;
    }
    if (result.status == memsim::MigrateStatus::kTxAbort) {
        // A concurrent write aborted the in-flight copy: the page is
        // write-hot *right now*, which is different from being pinned
        // (futile forever) or a plain transient (random). Back off
        // twice as hard per failure so the write burst can pass, but
        // cap sooner — bursts end, pins don't.
        const std::uint8_t streak = static_cast<std::uint8_t>(
            std::min<int>(fail_streak_[page] + 1, 4));
        fail_streak_[page] = streak;
        retry_after_[page] = retry_period(periods_, 2ull << streak);
        return;
    }
    // Transient: exponential backoff, capped at 64 periods.
    const std::uint8_t streak =
        static_cast<std::uint8_t>(std::min<int>(fail_streak_[page] + 1, 6));
    fail_streak_[page] = streak;
    retry_after_[page] = retry_period(periods_, 1ull << streak);
}

void
ArtMem::on_tx_resolved(PageId page, memsim::Tier src, memsim::Tier dst,
                       bool committed)
{
    (void)src;
    if (!initialized())
        return;
    if (committed) {
        lists_->remove(page);
        lists_->insert_head(page, dst == Tier::kFast
                                      ? lru::ListId::kFastActive
                                      : lru::ListId::kSlowInactive);
        note_migration_success(page);
        return;
    }
    note_migration_failure(page, {memsim::MigrateStatus::kTxAbort});
    if (dst == Tier::kFast) {
        // Aborted promotion: the page is still slow-resident and still
        // hot enough to have been a candidate. Re-home it so the next
        // unbacked-off period can find it; aborted demotions stay
        // off-list like any other failed demotion.
        lists_->remove(page);
        lists_->insert_head(page, lru::ListId::kSlowActive);
    }
}

std::size_t
ArtMem::demote_for_room(std::size_t need)
{
    auto& m = machine();
    std::size_t demoted = 0;
    auto demote_page = [&](PageId page) {
        lists_->remove(page);
        const auto result = m.migrate(page, Tier::kSlow);
        if (result.ok()) {
            // Demoted pages join the slow inactive head: cold but recent.
            lists_->insert_head(page, lru::ListId::kSlowInactive);
            ++demoted;
        } else if (result.pending()) {
            // Transactional open: the room arrives at commit, and
            // on_tx_resolved() re-homes (or backs off) the page. Count
            // it so the victim loops don't over-demote.
            ++demoted;
        } else if (result.faulted()) {
            // The page stays resident but leaves the lists (same as the
            // no-slot path), so the loops below keep making progress;
            // the backoff keeps the cold scan from hammering it.
            note_migration_failure(page, result);
        }
    };
    // 1) Fast-tier inactive tail (cold and not recently referenced).
    //    Stop at the first victim that is itself above the hotness
    //    threshold: swapping hot pages for hot pages cannot raise the
    //    access ratio and only burns migration bandwidth (the Pattern
    //    S4 thrashing trap, Section 3.1).
    while (demoted < need) {
        const PageId page = lists_->tail(lru::ListId::kFastInactive);
        if (page == kInvalidPage || bins_->count(page) >= threshold_)
            break;
        demote_page(page);
    }
    // 2) Fast pages that were never sampled at all: the very coldest,
    //    invisible to the LRU lists. Round-robin scan.
    const std::size_t pages = m.page_count();
    std::size_t scanned = 0;
    while (demoted < need && scanned < pages) {
        const PageId page = cold_scan_cursor_;
        if (++cold_scan_cursor_ == pages)
            cold_scan_cursor_ = 0;
        ++scanned;
        if (m.is_allocated(page) && m.tier_of_unchecked(page) == Tier::kFast &&
            lists_->where(page) == lru::ListId::kNone && !backed_off(page) &&
            !m.tx_page_inflight(page)) {
            demote_page(page);
        }
    }
    // 3) Fast active tail as a last resort, with the same hot-victim
    //    guard.
    while (demoted < need) {
        const PageId page = lists_->tail(lru::ListId::kFastActive);
        if (page == kInvalidPage || bins_->count(page) >= threshold_)
            break;
        demote_page(page);
    }
    return demoted;
}

void
ArtMem::promote_round(const std::vector<PageId>& round,
                      std::size_t& promoted, std::size_t& faulted)
{
    auto& m = machine();
    const std::size_t free = m.free_pages(Tier::kFast);
    if (round.size() > free)
        demote_for_room(round.size() - free);
    for (PageId page : round) {
        lists_->remove(page);
        const auto result = m.migrate(page, Tier::kFast);
        if (result.ok()) {
            // Aggressive re-insertion: always the fast active head.
            lists_->insert_head(page, lru::ListId::kFastActive);
            note_migration_success(page);
            ++promoted;
        } else if (result.pending()) {
            // Transactional open: the budget is spent either way;
            // on_tx_resolved() re-homes the page at commit or backs
            // it off at abort. Off-list until then.
            ++promoted;
        } else if (result.faulted() || result.denied()) {
            // Skip-and-requeue: the page stays a candidate for later
            // periods (after its backoff), and the budget it did not
            // consume can fund a replacement below. Tenancy denials
            // take the same path with a harder backoff — another
            // tenant's candidate can still use the refill round.
            lists_->insert_head(page, lru::ListId::kSlowActive);
            note_migration_failure(page, result);
            ++faulted;
        } else {
            lists_->insert_head(page, lru::ListId::kSlowActive);
        }
    }
}

std::size_t
ArtMem::perform_migration(Bytes budget)
{
    auto& m = machine();
    const auto want = static_cast<std::size_t>(budget / m.page_size());
    if (want == 0)
        return 0;
    std::vector<PageId> candidates;
    candidates.reserve(want);
    collect_promotion_candidates(want, candidates);
    // Scope-bounded selection: the kmigrated thread only touches the
    // candidate/victim lists it actually migrates from, not the whole
    // page population (contrast with MEMTIS's full classification walk).
    m.charge_overhead((candidates.size() + want) * 4);
    if (candidates.empty())
        return 0;
    std::size_t promoted = 0;
    std::size_t faulted = 0;
    promote_round(candidates, promoted, faulted);
    // Faulted promotions consumed no budget; refill the round once from
    // the next-best candidates (the failed pages are now backed off, so
    // the collection cannot hand them straight back).
    if (faulted > 0 && promoted < want) {
        std::vector<PageId> extra;
        extra.reserve(want - promoted);
        collect_promotion_candidates(want - promoted, extra);
        m.charge_overhead(extra.size() * 4);
        if (!extra.empty())
            promote_round(extra, promoted, faulted);
    }
    return promoted;
}

void
ArtMem::on_interval(SimTimeNs now)
{
    auto& m = machine();
    ++periods_;
    if (periods_ > std::numeric_limits<std::uint32_t>::max() - kLongestBackoff)
        fatal("ArtMem: decision period ", periods_,
              " leaves no room for a u32 backoff deadline");

    // Observe the environment (Algorithm 1 line 6).
    const stats::TauState tau = tracker_->take();
    if (window_latency_samples_ > 0) {
        // Pending-request proxy (Section 6.3.4): sampled load latency
        // plus the queueing contributed by in-flight migration traffic,
        // amortized over the sampled accesses of the window.
        const std::uint64_t migration_busy =
            m.totals().migration_busy_ns - last_migration_busy_ns_;
        last_migration_busy_ns_ = m.totals().migration_busy_ns;
        const double window_avg =
            (static_cast<double>(window_latency_sum_) +
             static_cast<double>(migration_busy) *
                 m.config().migration_contention) /
            static_cast<double>(window_latency_samples_);
        latency_ema_ns_ = config_.latency_ema_weight * window_avg +
                          (1.0 - config_.latency_ema_weight) * latency_ema_ns_;
    }
    window_latency_sum_ = 0;
    window_latency_samples_ = 0;

    const double tau_i = config_.reward_mode == RewardMode::kLatency
                             ? latency_tau()
                             : tau_for_reward(tau);
    const double lambda = migrated_last_period_ > 0 ? 1.0 : 0.0;
    double reward = tau_i - config_.beta + lambda * (tau_i - tau_prev_);
    // Keep the TD targets sane no matter what the observation pipeline
    // produced (a sampling blackout yields the no-sample state; a broken
    // latency proxy must not poison the Q-tables). The clamp bounds are
    // far outside the reachable reward range, so it never alters a
    // healthy run.
    if (!std::isfinite(reward))
        reward = -config_.beta;
    reward = std::clamp(reward, -100.0, 100.0);

    // A PEBS blackout (injected fault) leaves this period with no
    // samples: the trackers saw nothing, so the dedicated no-sample
    // state carries the decision. The migration agent still learns
    // there — "what to do while blind" is a real policy question — but
    // the threshold must not drift on zero evidence, so its agent is
    // frozen for the period.
    const bool blind = m.faults_enabled() && tau.no_samples(config_.k);

    Bytes budget = 0;
    if (config_.use_rl) {
        const int state = tau.state;
        const int mig_action = migration_agent_->step(reward, state);
        budget = config_.migration_sizes_mib[
                     static_cast<std::size_t>(mig_action)] << 20;
        if (config_.use_dynamic_threshold && !blind) {
            const int thr_action = threshold_agent_->step(reward, state);
            apply_threshold_action(thr_action);
        }
    } else {
        // Ablation: heuristic scope — capacity threshold, migrate all hot.
        threshold_ = std::max(
            config_.min_threshold,
            bins_->capacity_threshold(m.capacity_pages(Tier::kFast)));
        budget = static_cast<Bytes>(2048) << 20;
    }

    if (auto* t = trace(telemetry::Category::kRl)) {
        // The period's full state-action-reward record, emitted once
        // the scope decision is fixed but before it executes.
        t->instant(telemetry::Category::kRl, "decision", now,
                   telemetry::Args()
                       .add("state", tau.state)
                       .add("reward", reward)
                       .add("budget_mib", budget >> 20)
                       .add("threshold", threshold_)
                       .add("blind", blind ? 1 : 0)
                       .str());
    }
    if (auto* reg = metrics()) {
        reg->set(reg->gauge("artmem.threshold"),
                 static_cast<double>(threshold_));
        reg->set(reg->gauge("artmem.budget_mib"),
                 static_cast<double>(budget >> 20));
        reg->set(reg->gauge("artmem.reward"), reward);
    }

    migrated_last_period_ = perform_migration(budget);
    tau_prev_ = tau_i;
}

void
ArtMem::save_qtables(std::ostream& os) const
{
    migration_agent_->table().save(os);
    threshold_agent_->table().save(os);
}

namespace {

/** Both tables of a save_qtables() blob, or why they cannot be used. */
struct ParsedQTables {
    std::optional<rl::QTable> migration;
    std::optional<rl::QTable> threshold;
    std::string error;
};

/**
 * Parse the migration and then the threshold table from @p is, each
 * checked against its expected shape. Stops at the first problem.
 */
ParsedQTables
parse_qtables(std::istream& is, int states, int migration_actions,
              int threshold_actions)
{
    ParsedQTables out;
    const auto parse = [&](const char* which,
                           int actions) -> std::optional<rl::QTable> {
        std::string error;
        auto table = rl::QTable::try_load(is, &error);
        if (!table) {
            out.error = std::string(which) + " table: " + error;
            return std::nullopt;
        }
        if (table->states() != states || table->actions() != actions) {
            std::ostringstream why;
            why << which << " table is " << table->states() << "x"
                << table->actions() << ", expected " << states << "x"
                << actions;
            out.error = why.str();
            return std::nullopt;
        }
        return table;
    };
    out.migration = parse("migration", migration_actions);
    if (out.migration)
        out.threshold = parse("threshold", threshold_actions);
    return out;
}

}  // namespace

std::string
ArtMem::check_qtables(std::istream& is, const ArtMemConfig& config)
{
    return parse_qtables(
               is, config.k + 2,
               static_cast<int>(config.migration_sizes_mib.size()),
               static_cast<int>(config.threshold_deltas.size()))
        .error;
}

bool
ArtMem::load_qtables(std::istream& is)
{
    // All-or-nothing: parse and dimension-check both tables before
    // touching either agent, so a blob that dies halfway through cannot
    // leave one agent pretrained and the other cold.
    auto tables = parse_qtables(is, migration_agent_->table().states(),
                                migration_agent_->table().actions(),
                                threshold_agent_->table().actions());
    if (!tables.threshold) {
        warn("ArtMem: ignoring pretrained Q-tables (", tables.error,
             "); continuing from a cold start");
        return false;
    }
    migration_agent_->set_table(*std::move(tables.migration));
    threshold_agent_->set_table(*std::move(tables.threshold));
    return true;
}

}  // namespace artmem::core
