#include "tenancy/admission.hpp"

#include <algorithm>
#include <vector>

#include "util/logging.hpp"

namespace artmem::tenancy {

namespace {

/** Fixed per-tenant grant budget, refilled every decision interval. */
class StaticRateAdmission final : public memsim::AdmissionController
{
  public:
    StaticRateAdmission(std::uint32_t tenants, std::uint64_t rate)
        : rate_(rate), budget_(tenants, rate)
    {
        if (rate_ == 0)
            fatal("static admission: rate must be positive");
    }

    std::string_view name() const override { return "static"; }

    bool admit(std::uint32_t tenant, memsim::Tier) override
    {
        if (budget_[tenant] == 0)
            return false;
        --budget_[tenant];
        return true;
    }

    void on_interval(const memsim::TenantLedger&) override
    {
        std::fill(budget_.begin(), budget_.end(), rate_);
    }

  private:
    std::uint64_t rate_;
    std::vector<std::uint64_t> budget_;
};

/**
 * AIMD feedback on the decision-window hit ratios. While the aggregate
 * fast-tier hit ratio sits below target, tenants performing below the
 * aggregate — the ones whose promotions are not paying off — get their
 * per-interval budgets halved, freeing fast-tier churn for the tenants
 * that convert promotions into hits; budgets recover additively once
 * the aggregate is healthy (or for above-aggregate tenants).
 */
class FeedbackAdmission final : public memsim::AdmissionController
{
  public:
    FeedbackAdmission(std::uint32_t tenants, double target,
                      std::uint64_t max_grants)
        : target_(target),
          max_(max_grants),
          cap_(tenants, max_grants),
          budget_(tenants, max_grants)
    {
        if (target_ < 0.0 || target_ > 1.0)
            fatal("feedback admission: target ", target_,
                  " outside [0, 1]");
        if (max_ == 0)
            fatal("feedback admission: max grants must be positive");
    }

    std::string_view name() const override { return "feedback"; }

    bool admit(std::uint32_t tenant, memsim::Tier) override
    {
        if (budget_[tenant] == 0)
            return false;
        --budget_[tenant];
        return true;
    }

    void on_interval(const memsim::TenantLedger& ledger) override
    {
        const double aggregate = ledger.aggregate_window_fast_ratio();
        const bool starved = aggregate < target_;
        for (std::uint32_t t = 0; t < ledger.tenant_count(); ++t) {
            if (starved && ledger.window_fast_ratio(t) < aggregate)
                cap_[t] = std::max<std::uint64_t>(kMinGrants, cap_[t] / 2);
            else
                cap_[t] = std::min<std::uint64_t>(max_, cap_[t] + kStep);
            budget_[t] = cap_[t];
        }
    }

  private:
    /** Never starve a tenant completely: one grant per interval floor. */
    static constexpr std::uint64_t kMinGrants = 1;
    /** Additive recovery per interval. */
    static constexpr std::uint64_t kStep = 8;

    double target_;
    std::uint64_t max_;
    std::vector<std::uint64_t> cap_;
    std::vector<std::uint64_t> budget_;
};

}  // namespace

std::vector<std::string_view>
admission_names()
{
    return {"none", "static", "feedback"};
}

std::unique_ptr<memsim::AdmissionController>
make_admission(std::string_view name, std::uint32_t tenants,
               std::uint64_t rate, double target, std::uint64_t max_grants)
{
    if (name == "none")
        return nullptr;
    if (name == "static")
        return std::make_unique<StaticRateAdmission>(tenants, rate);
    if (name == "feedback")
        return std::make_unique<FeedbackAdmission>(tenants, target,
                                                   max_grants);
    fatal("unknown admission policy '", name,
          "' (known: none static feedback)");
}

}  // namespace artmem::tenancy
