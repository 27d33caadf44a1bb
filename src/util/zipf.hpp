/**
 * @file
 * Zipfian distribution sampler.
 *
 * Used by the YCSB-like key-value workload and the skewed-region
 * generators; memory access frequencies typically follow a Zipfian or
 * Pareto distribution (ArtMem paper Section 4.3, citing [8, 10]).
 *
 * The sampler's semantics are the Gray et al. closed form (rank_of()).
 * That form costs one libm pow() per draw, and workload generation
 * dominates simulator wall time (DESIGN.md §9), so a generator that
 * draws often enough switches to an exact rank table. A draw is the
 * 53-bit integer k behind Rng::next_double() (u = k * 2^-53 exactly).
 * Boundary r of the table is the smallest k whose closed-form rank
 * exceeds r, so the rank of k is the number of boundaries <= k: one
 * guide-array load and a short scan over the boundaries' top 32 bits.
 * A draw that shares those bits with a boundary could fall on either
 * side of it, so the closed form answers it. Building the table costs
 * about as much as 7 closed-form draws per rank, so the generator pays
 * the closed form per draw until the draws the table would have served
 * add up to that cost, then builds it (ski rental). The build checks
 * every boundary and a seeded random spray against the closed form and
 * drops the table on any mismatch. Table and closed form return the same
 * rank for every draw, enforced by tests/test_diff_model.cpp, so
 * neither the table nor the moment it is built changes any output.
 */
#ifndef ARTMEM_UTIL_ZIPF_HPP
#define ARTMEM_UTIL_ZIPF_HPP

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace artmem {

/**
 * Zipfian sampler over [0, n) with exponent theta, using the
 * Gray et al. "quick and portable" method popularized by YCSB's
 * ZipfianGenerator. Draws are O(1).
 */
class ZipfianGenerator
{
  public:
    /**
     * @param n     Number of items (must be >= 1).
     * @param theta Skew parameter in (0, 1); YCSB default is 0.99.
     */
    ZipfianGenerator(std::uint64_t n, double theta = 0.99);

    /** Draw the next item rank; rank 0 is the most popular item. */
    std::uint64_t
    next(Rng& rng)
    {
        // The integer behind Rng::next_double(), which it consumes
        // identically.
        const std::uint64_t k = rng.next() >> 11;
        return cells_.empty() ? rent(k) : lookup(k);
    }

    /**
     * The reference closed form: the rank the Gray et al. method
     * assigns to unit draw @p u. Public so the differential tests can
     * pit it against the table path.
     */
    std::uint64_t rank_of(double u) const;

    /** Number of items. */
    std::uint64_t item_count() const { return n_; }

    /** Skew exponent. */
    double theta() const { return theta_; }

    /** Ranks covered by the verified table (0 until it is built). */
    std::size_t
    table_ranks() const
    {
        return cells_.empty() ? 0 : cells_.size() - 1;
    }

    /**
     * Closed-form draws the table would have served that this generator
     * takes before building it: the build's cost, measured in such
     * draws. Fixed at construction.
     */
    std::uint64_t table_price() const { return price_; }

  private:
    /** A draw's cell is its top 32 bits: k >> kCellShift. */
    static constexpr int kCellShift = 21;

    static double zeta(std::uint64_t n, double theta);

    /** The unit draw of 53-bit integer @p k, as Rng::next_double(). */
    static double
    unit(std::uint64_t k)
    {
        return static_cast<double>(k) * 0x1.0p-53;
    }

    /** The closed form's pow() base for unit draw @p u. */
    double base_of(double u) const { return eta_ * u - eta_ + 1.0; }

    /** Closed-form draw before the table exists; pays toward it. */
    std::uint64_t rent(std::uint64_t k);

    void build_table();

    /**
     * Table draw: the guide gives the rank at the left edge of k's
     * bucket, and the scan counts the boundaries in cells below k's.
     * The last entry of cells_ is a sentinel no cell exceeds. The closed
     * form answers a draw in a boundary's own cell, and one past the
     * last boundary of a table that stops short of rank n-1.
     */
    std::uint64_t
    lookup(std::uint64_t k) const
    {
        std::uint64_t r = guide_[k >> guide_shift_];
        const auto cell = static_cast<std::uint32_t>(k >> kCellShift);
        while (cells_[r] < cell)
            ++r;
        return cells_[r] == cell || r >= closed_from_ ? rank_of(unit(k)) : r;
    }

    std::uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;
    double zeta2theta_;
    /** 1.0 + 0.5^theta, the rank-1 cutoff of the closed form. */
    double threshold12_;
    /**
     * Draws of a rank below this are ones the table would serve and
     * pay toward it; 0 once the table is built or if it never will be.
     */
    std::uint64_t rent_below_ = 0;
    /** Build cost in closed-form draws (see table_price()). */
    std::uint64_t price_ = 0;
    /** Closed-form draws left to pay before the table is built. */
    std::uint64_t rent_left_ = 0;
    /** cells_[r]: the cell of the smallest k whose rank exceeds r. */
    std::vector<std::uint32_t> cells_;
    /** guide_[g]: boundaries in cells below bucket g's first cell. */
    std::vector<std::uint16_t> guide_;
    int guide_shift_ = 0;
    /** Table ranks at or above this are answered by the closed form. */
    std::uint64_t closed_from_ = 0;
};

}  // namespace artmem

#endif  // ARTMEM_UTIL_ZIPF_HPP
