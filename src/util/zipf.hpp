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
 * dominates simulator wall time (DESIGN.md §9), so a shape that is
 * drawn from often enough switches to an exact rank table. A draw is
 * the 53-bit integer k behind Rng::next_double() (u = k * 2^-53
 * exactly). Boundary r of the table is the smallest k whose closed-form
 * rank exceeds r, so the rank of k is the number of boundaries <= k:
 * one guide-array load and a branch-free three-step count over the top
 * 32 bits of the eight boundaries from the guide's rank on. The count
 * is exact while no guide bucket holds more than 7 boundaries; a shape
 * past that keeps no table. A draw that shares those bits with a
 * boundary could fall on either side of it, so the closed form answers
 * it. Building the table costs about as much as 7 closed-form draws per
 * rank, so the shape pays the closed form per draw until the draws the
 * table would have served add up to that cost, then builds it (ski
 * rental). The build checks every boundary and a seeded random spray
 * against the closed form and drops the table on any mismatch. Table
 * and closed form return the same rank for every draw, enforced by
 * tests/test_diff_model.cpp, so neither the table nor the moment it is
 * built changes any output.
 *
 * The zeta sums, the rent and the table belong to a ZipfShape, one per
 * (n, theta) within a run; a ZipfianGenerator is one stream's handle on
 * it. Generators made through one ZipfShapes registry with the same
 * (n, theta) share a shape, so they sum zeta once, their draws pay one
 * rent together, and one table serves them all. A generator made
 * without a registry owns a private shape. The registry is scoped to
 * one run and never crosses threads.
 */
#ifndef ARTMEM_UTIL_ZIPF_HPP
#define ARTMEM_UTIL_ZIPF_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace artmem {

/**
 * One Zipfian distribution over [0, n) with exponent theta: the
 * Gray et al. "quick and portable" closed form popularized by YCSB's
 * ZipfianGenerator, the rent its draws pay toward the rank table, and
 * the table once built. Draws go through a ZipfianGenerator.
 */
class ZipfShape
{
  public:
    /**
     * @param n     Number of items (must be >= 1).
     * @param theta Skew parameter in (0, 1); YCSB default is 0.99.
     */
    ZipfShape(std::uint64_t n, double theta);

    /** Generators read the table through pointers into this object. */
    ZipfShape(const ZipfShape&) = delete;
    ZipfShape& operator=(const ZipfShape&) = delete;

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
        return table_.cells == nullptr ? 0 : cells_.size() - kWindow;
    }

    /**
     * Closed-form draws the table would have served that this shape's
     * generators take, together, before it builds the table: the
     * build's cost, measured in such draws. Fixed at construction.
     */
    std::uint64_t table_price() const { return price_; }

  private:
    friend class ZipfianGenerator;
    /** Tests probe lookup() at the boundaries' cells. */
    friend struct ZipfTestPeer;

    /**
     * What a draw reads of the table, copied into each generator so a
     * table draw loads it from the generator itself.
     */
    struct Table {
        const std::uint32_t* cells = nullptr;
        const std::uint16_t* guide = nullptr;
        int guide_shift = 0;
        /** Draws k at or above this are answered by the closed form. */
        std::uint64_t closed_from_k = 0;
    };

    /** A draw's cell is its top 32 bits: k >> kCellShift. */
    static constexpr int kCellShift = 21;

    /**
     * Cells one lookup() counts over, from the guide's rank on. A guide
     * bucket may hold at most kWindow - 1 boundaries, and cells_ ends in
     * kWindow sentinels, so the count never reads past it.
     */
    static constexpr std::size_t kWindow = 8;

    static double zeta(std::uint64_t n, double theta);

    /** The unit draw of 53-bit integer @p k, as Rng::next_double(). */
    static double
    unit(std::uint64_t k)
    {
        return static_cast<double>(k) * 0x1.0p-53;
    }

    /** The closed form's pow() base for unit draw @p u. */
    double base_of(double u) const { return eta_ * u - eta_ + 1.0; }

    /**
     * Closed-form draw before the table exists; pays toward it, and
     * builds it on the draw that completes the price.
     */
    std::uint64_t rent(std::uint64_t k);

    void build_table();

    /**
     * Table draw from @p t, this shape's table: the guide gives the
     * rank at the left edge of k's bucket, and a binary count over the
     * kWindow cells from there adds the boundaries in cells below k's.
     * The bucket holds fewer than kWindow boundaries, so cells[r + 7] is
     * never below k's cell and three halving steps land r on the first
     * boundary not below it. The last kWindow entries of cells are
     * sentinels no cell exceeds. The closed form answers a draw in a
     * boundary's own cell, and every draw from the last boundary's cell
     * on in a table that stops short of rank n-1; that test reads only
     * k, so such a draw does not wait on the count's loads.
     */
    std::uint64_t
    lookup(const Table& t, std::uint64_t k) const
    {
        const std::uint32_t* c = t.cells;
        std::uint64_t r = t.guide[k >> t.guide_shift];
        const auto cell = static_cast<std::uint32_t>(k >> kCellShift);
        r += 4 * std::uint64_t{c[r + 3] < cell};
        r += 2 * std::uint64_t{c[r + 1] < cell};
        r += std::uint64_t{c[r] < cell};
        return k >= t.closed_from_k || c[r] == cell ? rank_of(unit(k)) : r;
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
    /**
     * cells_[r]: the cell of the smallest k whose rank exceeds r, then
     * kWindow sentinels.
     */
    std::vector<std::uint32_t> cells_;
    /** guide_[g]: boundaries in cells below bucket g's first cell. */
    std::vector<std::uint16_t> guide_;
    /** The verified table; null cells until it is built. */
    Table table_;
};

/**
 * The shapes of one run, one per (n, theta) asked for. A run that
 * builds several streams over one distribution (the tenants of a
 * tenancy::TenantSet) makes its generators through one registry. A
 * registry is a plain local of the code that builds the run: never
 * static, never shared across runs or threads, and it holds no lock.
 */
class ZipfShapes
{
  public:
    /** The shape of (@p n, @p theta), made on the first request. */
    std::shared_ptr<ZipfShape> get(std::uint64_t n, double theta);

  private:
    std::vector<std::shared_ptr<ZipfShape>> shapes_;
};

/**
 * One stream's Zipfian sampler: a handle on a ZipfShape. Draws are
 * O(1). It pays its shape's rent until the shape has built the table,
 * and adopts the table on its next draw that takes the rent path.
 */
class ZipfianGenerator
{
  public:
    /**
     * @param n      Number of items (must be >= 1).
     * @param theta  Skew parameter in (0, 1); YCSB default is 0.99.
     * @param shapes Registry to share the shape through; a generator
     *               made without one owns a private shape.
     */
    ZipfianGenerator(std::uint64_t n, double theta = 0.99,
                     ZipfShapes* shapes = nullptr);

    /** Draw the next item rank; rank 0 is the most popular item. */
    std::uint64_t
    next(Rng& rng)
    {
        // The integer behind Rng::next_double(), which it consumes
        // identically.
        const std::uint64_t k = rng.next() >> 11;
        return table_.cells == nullptr ? rent(k) : shape_->lookup(table_, k);
    }

    /** Ranks of the table this generator reads (0 until it adopts one). */
    std::size_t
    table_ranks() const
    {
        return table_.cells == nullptr ? 0 : shape_->table_ranks();
    }

    /** The shape this generator draws from: its closed form and price. */
    const ZipfShape& shape() const { return *shape_; }

  private:
    /** Tests probe lookup() at the boundaries' cells. */
    friend struct ZipfTestPeer;

    /** Pays the shape's rent, then adopts its table if it has one. */
    std::uint64_t rent(std::uint64_t k);

    std::shared_ptr<ZipfShape> shape_;
    /** The shape's table once adopted. */
    ZipfShape::Table table_;
};

}  // namespace artmem

#endif  // ARTMEM_UTIL_ZIPF_HPP
