#include "util/zipf.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/logging.hpp"

namespace artmem {

namespace {

/** Draws k range over [0, kDraws); kDraws also marks "no such k". */
constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;

/** Ranks covered by the table (capped by the item count). */
constexpr std::uint64_t kMaxTableRanks = std::uint64_t{1} << 14;

/** Guide buckets are capped at 2^15, a 64 KiB uint16 array. */
constexpr int kMaxGuideBits = 15;

/**
 * Cost of the build per rank, in closed-form draws of the same
 * shape. Measured at 3.5-8.3 on the (n, theta) the workloads build,
 * varying with the host's load: 4.1-4.5 pow() calls (the inverse's
 * start, the search's evaluations with both side checks, and the table
 * check past the boundary's cell), and a search whose steps each wait
 * on the last. 7 prices ycsb, whose closed-form draws are the cheapest,
 * near its break-even point and the rest somewhat later; pricing lower
 * buys tables that never pay back.
 */
constexpr std::uint64_t kCostPerRank = 7;

/**
 * Random probes per unit of u the table covers. The other checks sit
 * next to each boundary; the spray samples the draws between them.
 */
constexpr double kProbesPerUnitU = 24576.0;

/** Correction steps one boundary search may take before giving up. */
constexpr int kMaxSearchSteps = 16;

std::uint64_t
spray_probes(double covered_u)
{
    return static_cast<std::uint64_t>(std::ceil(kProbesPerUnitU * covered_u));
}

}  // namespace

double
ZipfShape::zeta(std::uint64_t n, double theta)
{
    double sum = 0.0;
    // Direct summation; n is bounded in our use (region/item counts).
    for (std::uint64_t i = 1; i <= n; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
}

ZipfShape::ZipfShape(std::uint64_t n, double theta) : n_(n), theta_(theta)
{
    if (n == 0)
        fatal("ZipfianGenerator requires at least one item");
    if (theta <= 0.0 || theta >= 1.0)
        fatal("ZipfianGenerator theta must be in (0,1), got ", theta);
    alpha_ = 1.0 / (1.0 - theta_);
    zetan_ = zeta(n_, theta_);
    zeta2theta_ = zeta(2, theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2theta_ / zetan_);
    // Caching 0.5^theta is exact: pow() is a pure function of its
    // arguments, so the cached double is bit-identical to the per-draw
    // recomputation the closed form used to do.
    threshold12_ = 1.0 + std::pow(0.5, theta_);

    // Rank n-1 has no upper boundary below u = 1.0, so at most n-1
    // boundaries exist; n == 1 never builds a table.
    const std::uint64_t target = std::min(n_ - 1, kMaxTableRanks);
    if (target == 0)
        return;
    // A table reaching rank n-1 serves every draw.
    rent_below_ = target == n_ - 1 ? n_ : target;
    // The spray covers every u when the table reaches rank n-1, and up
    // to its last boundary otherwise; the analytic inverse of the
    // closed form places that boundary closely enough to price it.
    double covered_u = 1.0;
    if (target < n_ - 1) {
        const double y = std::pow(static_cast<double>(target) /
                                      static_cast<double>(n_),
                                  1.0 - theta_);
        covered_u = std::clamp((y - 1.0 + eta_) / eta_, 0.0, 1.0);
    }
    price_ = kCostPerRank * target + spray_probes(covered_u);
    rent_left_ = price_;
}

std::uint64_t
ZipfShape::rank_of(double u) const
{
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < threshold12_)
        return 1;
    const auto rank = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(base_of(u), alpha_));
    return rank >= n_ ? n_ - 1 : rank;
}

std::uint64_t
ZipfShape::rent(std::uint64_t k)
{
    const std::uint64_t r = rank_of(unit(k));
    if (r < rent_below_ && --rent_left_ == 0)
        build_table();
    return r;
}

void
ZipfShape::build_table()
{
    const std::uint64_t target = std::min(n_ - 1, kMaxTableRanks);
    rent_below_ = 0;  // Built once; a dropped table is not retried.

    // Smallest k with unit(k) * zeta(n) >= c, from the inverse and a
    // short exact walk.
    auto first_k_with_uz = [&](double c) {
        std::uint64_t k = static_cast<std::uint64_t>(
            std::min(c / zetan_, 1.0) * 0x1.0p53);
        while (k > 0 && unit(k - 1) * zetan_ >= c)
            --k;
        while (k < kDraws && unit(k) * zetan_ < c)
            ++k;
        return k;
    };
    // Smallest k with base_of(unit(k)) >= x. The analytic inverse of
    // base_of() aims about half an ulp below x, where rounding to
    // nearest starts to yield x; the walks make the answer exact.
    auto first_k_with_base = [&](double x) {
        const double u = ((x - 1.0) - x * 0x1.0p-54 + eta_) / eta_;
        std::uint64_t k =
            u <= 0.0   ? 0
            : u >= 1.0 ? kDraws
                       : static_cast<std::uint64_t>(u * 0x1.0p53);
        while (k > 0 && base_of(unit(k - 1)) >= x)
            --k;
        while (k < kDraws && base_of(unit(k)) < x)
            ++k;
        return k;
    };

    // Below k_pow the closed form compares u * zeta(n) with two
    // cutoffs, so each k is its own run. From k_pow on it depends on k
    // only through base_of(unit(k)), which rises weakly with k, so it
    // is constant over each run of k sharing one base. The search moves
    // from run to run and evaluates the closed form only at a run's
    // first k and the k before it.
    const std::uint64_t k_pow = first_k_with_uz(threshold12_);
    auto run_start = [&](std::uint64_t k) {
        return k <= k_pow
                   ? k
                   : std::max(k_pow, first_k_with_base(base_of(unit(k))));
    };
    auto next_run = [&](std::uint64_t k) {
        return k < k_pow ? k + 1
                         : first_k_with_base(
                               std::nextafter(base_of(unit(k)), 2.0));
    };

    bool ok = true;
    std::uint64_t lo = 0;  // the last boundary found
    cells_.reserve(target + kWindow);
    for (std::uint64_t r = 0; r < target; ++r) {
        // Start from the closed form's inverse: rank 0 ends where
        // u * zeta(n) reaches 1, rank r >= 1 where n * base^alpha
        // reaches r + 1. Boundaries never decrease.
        std::uint64_t b =
            r == 0 ? first_k_with_uz(1.0)
                   : std::max(k_pow,
                              first_k_with_base(std::pow(
                                  static_cast<double>(r + 1) /
                                      static_cast<double>(n_),
                                  1.0 - theta_)));
        b = std::max(lo, b);
        // Exact local search. Its last two evaluations are the side
        // checks rank_of(b) > r and rank_of(b - 1) <= r. b >= 1 holds
        // throughout, because rank_of(0) == 0.
        int steps = 0;
        for (; b < kDraws && steps <= kMaxSearchSteps; ++steps) {
            if (rank_of(unit(b)) <= r) {
                b = next_run(b);
                continue;
            }
            if (rank_of(unit(b - 1)) <= r)
                break;
            b = run_start(b - 1);
        }
        if (b >= kDraws)
            break;  // No drawable u reaches rank r+1; stop early.
        if (steps > kMaxSearchSteps || b < lo) {
            ok = false;
            break;
        }
        cells_.push_back(static_cast<std::uint32_t>(b >> kCellShift));
        lo = b;
    }
    const std::uint64_t ranks = cells_.size();
    if (!ok || ranks == 0) {
        cells_ = {};
        return;
    }

    // A table reaching rank n-1 answers every draw; one stopping short
    // leaves the draws from its last boundary's cell on to the closed
    // form.
    Table t;
    t.closed_from_k = ranks == n_ - 1
                          ? kDraws
                          : std::uint64_t{cells_[ranks - 1]} << kCellShift;
    const std::uint64_t span = ranks == n_ - 1 ? kDraws : lo;
    cells_.resize(ranks + kWindow, std::numeric_limits<std::uint32_t>::max());

    // About two guide buckets per rank, so a bucket holds a handful of
    // boundaries even where the tail packs them densest.
    const int guide_bits =
        std::min(kMaxGuideBits, static_cast<int>(std::bit_width(ranks)) + 1);
    t.guide_shift = 53 - guide_bits;
    guide_.resize(std::size_t{1} << guide_bits);
    std::uint64_t r = 0;
    for (std::size_t g = 0; g < guide_.size(); ++g) {
        const std::uint64_t first_cell = std::uint64_t{g}
                                         << (t.guide_shift - kCellShift);
        while (cells_[r] < first_cell)
            ++r;
        guide_[g] = static_cast<std::uint16_t>(r);
    }

    // lookup() counts over kWindow cells from its bucket's guide rank,
    // which is exact only while no bucket holds kWindow boundaries.
    for (std::size_t g = 0; g < guide_.size() && ok; ++g) {
        const std::uint64_t end = g + 1 < guide_.size() ? guide_[g + 1] : ranks;
        ok = end - guide_[g] < kWindow;
    }

    // The closed form answers a draw in a boundary's own cell, so the
    // table's answer is checked on the first draw past each boundary's
    // cell, where it must count that boundary, and on a seeded random
    // spray under its span. tests/test_diff_model.cpp additionally
    // cross-checks millions of live draws and every boundary's cell.
    t.cells = cells_.data();
    t.guide = guide_.data();
    for (std::uint64_t i = 0; i < ranks && ok; ++i) {
        const std::uint64_t k = (std::uint64_t{cells_[i]} + 1) << kCellShift;
        ok = k >= kDraws || lookup(t, k) == rank_of(unit(k));
    }
    Rng probe(0x5a1fb00c0ffee123ull);
    const std::uint64_t probes = spray_probes(unit(span));
    for (std::uint64_t i = 0; i < probes && ok; ++i) {
        const std::uint64_t k = probe.next_below(span);
        ok = lookup(t, k) == rank_of(unit(k));
    }
    if (ok) {
        table_ = t;
    } else {
        cells_ = {};
        guide_ = {};
    }
}

std::shared_ptr<ZipfShape>
ZipfShapes::get(std::uint64_t n, double theta)
{
    for (const auto& shape : shapes_) {
        if (shape->item_count() == n && shape->theta() == theta)
            return shape;
    }
    return shapes_.emplace_back(std::make_shared<ZipfShape>(n, theta));
}

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta,
                                   ZipfShapes* shapes)
    : shape_(shapes != nullptr ? shapes->get(n, theta)
                               : std::make_shared<ZipfShape>(n, theta)),
      table_(shape_->table_)
{
}

std::uint64_t
ZipfianGenerator::rent(std::uint64_t k)
{
    const std::uint64_t r = shape_->rent(k);
    table_ = shape_->table_;
    return r;
}

}  // namespace artmem
