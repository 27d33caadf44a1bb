/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component in the reproduction (workload generators,
 * epsilon-greedy exploration) draws from an explicitly seeded Rng so that
 * experiments are reproducible bit-for-bit. The generator is
 * xoshiro256** seeded through SplitMix64, which is both fast enough for
 * the access-generation hot loop and statistically strong.
 */
#ifndef ARTMEM_UTIL_RNG_HPP
#define ARTMEM_UTIL_RNG_HPP

#include <cstdint>

namespace artmem {

/**
 * SplitMix64 step; used for seeding and as a cheap hash.
 *
 * Defined inline: seed derivation and fault-injector draws sit on hot
 * paths, and an out-of-line call per draw measurably costs throughput
 * (DESIGN.md §9).
 */
inline std::uint64_t
splitmix64(std::uint64_t& state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Seed for job @p index of a sweep with @p base_seed.
 *
 * A pure function of (base_seed, index) — never of grid shape,
 * scheduling order, or worker count — so every job in a parallel sweep
 * draws from the same RNG stream it would get in a serial run. Two
 * SplitMix64 steps decorrelate neighbouring indices.
 *
 * This two-argument form IS the kJob domain of the namespaced overload
 * below, frozen exactly as-is because sweep goldens (EXPERIMENTS.md)
 * bake in its values.
 */
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t index);

/**
 * Derivation namespace for nested seed streams (DESIGN.md §13).
 *
 * A sweep derives per-job seeds, and a multi-tenant run derives
 * per-tenant streams from its run seed. Without namespacing, "job 3 of
 * the sweep" and "tenant 3 of a run" would collide whenever a run seed
 * equals the sweep base seed (e.g. job 0 with --derive-seeds off). Each
 * domain salts the derivation so the index spaces cannot overlap.
 *
 * The enum values are the salts. kJob is 0 and is special-cased to the
 * legacy two-argument formula so every existing sweep golden stays
 * byte-identical; new domains must use large odd constants.
 */
enum class SeedDomain : std::uint64_t {
    kJob = 0,                          ///< Sweep jobs (legacy stream).
    kTenant = 0xc2b2ae3d27d4eb4full,   ///< Per-tenant workload streams.
};

/**
 * Seed for @p index within @p domain, derived from @p base_seed.
 * derive_seed(b, SeedDomain::kJob, i) == derive_seed(b, i) exactly;
 * any other domain yields a stream disjoint from the job stream
 * (tests/test_tenancy.cpp checks tenant i never meets job i).
 */
std::uint64_t derive_seed(std::uint64_t base_seed, SeedDomain domain,
                          std::uint64_t index);

/**
 * xoshiro256** pseudo-random generator.
 *
 * Satisfies the UniformRandomBitGenerator concept so it can also be fed
 * to <random> distributions where convenient.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Reseed in place. */
    void seed(std::uint64_t seed);

    /**
     * Next raw 64-bit value. Inline: workload generation draws one to
     * three values per simulated access, making this the single
     * most-executed function in the simulator (DESIGN.md §9).
     */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl_(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl_(s_[3], 45);
        return result;
    }

    /** UniformRandomBitGenerator interface. */
    result_type operator()() { return next(); }
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** Uniform integer in [0, bound) using Lemire's multiply-shift. */
    std::uint64_t
    next_below(std::uint64_t bound)
    {
        if (bound == 0)
            panic_bound_zero();
        // The slight modulo bias is irrelevant for simulation workloads
        // (bound << 2^64). __int128 is a GCC/Clang extension;
        // __extension__ keeps -Wpedantic quiet about it.
        __extension__ typedef unsigned __int128 uint128;
        return static_cast<std::uint64_t>(
            (static_cast<uint128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t next_range(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double
    next_double()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p. */
    bool next_bool(double p) { return next_double() < p; }

    /** Fork a statistically independent child generator. */
    Rng fork();

  private:
    static std::uint64_t
    rotl_(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** Out-of-line panic keeps the inline fast path tiny. */
    [[noreturn]] static void panic_bound_zero();

    std::uint64_t s_[4];
};

}  // namespace artmem

#endif  // ARTMEM_UTIL_RNG_HPP
