/**
 * @file
 * Small statistics helpers: online mean/variance, Pearson correlation
 * (Figure 3), and geometric means for normalized-performance summaries.
 */
#ifndef ARTMEM_UTIL_STATS_HPP
#define ARTMEM_UTIL_STATS_HPP

#include <cstddef>
#include <span>

namespace artmem {

/** Welford online accumulator for mean and variance. */
class OnlineStats
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Number of observations so far. */
    std::size_t count() const { return n_; }

    /** Sample mean (0 if empty). */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Unbiased sample variance (0 if fewer than two observations). */
    double variance() const;

    /** Smallest observation seen (0 if empty). */
    double min() const { return n_ ? min_ : 0.0; }

    /** Largest observation seen (0 if empty). */
    double max() const { return n_ ? max_ : 0.0; }

    /** Merge another accumulator into this one. */
    void merge(const OnlineStats& other);

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Pearson correlation coefficient of two equally sized samples.
 * Returns 0 when either sample has zero variance or fewer than two points.
 */
double pearson(std::span<const double> x, std::span<const double> y);

/** Geometric mean; all inputs must be positive (0 if empty). */
double geomean(std::span<const double> xs);

}  // namespace artmem

#endif  // ARTMEM_UTIL_STATS_HPP
