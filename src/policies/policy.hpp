/**
 * @file
 * Abstract interface every tiering policy implements.
 *
 * The simulation engine (sim/engine.hpp) drives a policy with the same
 * stimuli a kernel policy receives on real hardware:
 *
 *  - on_samples(): the drained PEBS buffer, delivered at the sampling-
 *    thread cadence (ksampled in ArtMem);
 *  - on_hint_fault(): a NUMA-hint fault on a page the policy trapped;
 *  - on_tick(): periodic bookkeeping (page-table scans, LRU aging);
 *  - on_interval(): the migration/decision interval (kmigrated) where
 *    the policy is expected to issue promotions/demotions through the
 *    TieredMachine it was attached to.
 *
 * Policies are attached to exactly one machine per run and must be
 * reconstructed between runs.
 */
#ifndef ARTMEM_POLICIES_POLICY_HPP
#define ARTMEM_POLICIES_POLICY_HPP

#include <span>
#include <string_view>

#include "memsim/pebs.hpp"
#include "memsim/tiered_machine.hpp"
#include "telemetry/telemetry.hpp"
#include "util/types.hpp"

namespace artmem::policies {

/** Base class for tiering policies (the seven baselines and ArtMem). */
class Policy
{
  public:
    virtual ~Policy() = default;

    /** Short identifier used in tables ("memtis", "artmem", ...). */
    virtual std::string_view name() const = 0;

    /**
     * Attach to the machine for a run. Overrides must call the base
     * implementation first.
     */
    virtual void
    init(memsim::TieredMachine& machine)
    {
        machine_ = &machine;
    }

    /** Drained PEBS samples since the previous delivery. */
    virtual void on_samples(std::span<const memsim::PebsSample> samples)
    {
        (void)samples;
    }

    /** A trapped page was accessed (page resides in @p tier). */
    virtual void on_hint_fault(PageId page, memsim::Tier tier)
    {
        (void)page;
        (void)tier;
    }

    /** Sampling-thread cadence bookkeeping. */
    virtual void on_tick(SimTimeNs now) { (void)now; }

    /** Migration/decision interval; issue migrations here. */
    virtual void on_interval(SimTimeNs now) { (void)now; }

    /**
     * A transactional migration this policy opened (migrate() returned
     * kTxOpened) has resolved: @p committed says whether the page now
     * resides in @p dst or a concurrent write aborted the copy and it
     * stayed in @p src. Delivered from TieredMachine::poll_tx() at
     * decision boundaries; only called in transactional mode. Policies
     * that keep per-page structures (LRU lists) re-home the page here.
     */
    virtual void on_tx_resolved(PageId page, memsim::Tier src,
                                memsim::Tier dst, bool committed)
    {
        (void)page;
        (void)src;
        (void)dst;
        (void)committed;
    }

    /**
     * Attach (or with nullptr detach) the run's telemetry bundle; the
     * engine calls this before init(). Overrides that forward it to
     * owned components must call the base implementation first.
     */
    virtual void set_telemetry(telemetry::Telemetry* telemetry)
    {
        telemetry_ = telemetry;
    }

  protected:
    /** The machine this policy is attached to; panics if detached. */
    memsim::TieredMachine&
    machine()
    {
        return *machine_;
    }

    /** Read-only machine access for const policy methods. */
    const memsim::TieredMachine&
    machine() const
    {
        return *machine_;
    }

    /** The attached telemetry bundle, or nullptr when telemetry is off. */
    telemetry::Telemetry* telemetry() { return telemetry_; }

    /** Sink for @p cat, or nullptr — the branch-on-null idiom every
     *  instrumentation site uses (zero cost when telemetry is off). */
    telemetry::TraceSink* trace(telemetry::Category cat)
    {
        return telemetry_ != nullptr ? telemetry_->trace(cat) : nullptr;
    }

    /** Metrics shard, or nullptr when metrics collection is off. */
    telemetry::MetricsRegistry* metrics()
    {
        return telemetry_ != nullptr ? telemetry_->metrics() : nullptr;
    }

  private:
    memsim::TieredMachine* machine_ = nullptr;
    telemetry::Telemetry* telemetry_ = nullptr;
};

}  // namespace artmem::policies

#endif  // ARTMEM_POLICIES_POLICY_HPP
