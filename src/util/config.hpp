/**
 * @file
 * Minimal key=value configuration store, in the spirit of MASIM's plain
 * text workload configs. Supports '#' comments, section-free files, and
 * typed getters with defaults.
 */
#ifndef ARTMEM_UTIL_CONFIG_HPP
#define ARTMEM_UTIL_CONFIG_HPP

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace artmem {

/**
 * Parse all of @p text as an integer (base prefixes as strtoll). fatal()
 * naming @p what if it is malformed or lies outside long long, which
 * strtoll would clamp silently.
 */
long long parse_int(const std::string& text, std::string_view what);

/**
 * Parse all of @p text as a decimal unsigned integer no larger than
 * @p max; leading zeros are decimal too ("010" is 10). fatal() naming
 * @p what if it is malformed, starts with '-' (strtoull would wrap "-1"
 * to the largest value) or '+', carries a "0x" prefix, or exceeds
 * @p max.
 */
std::uint64_t parse_uint(const std::string& text, std::uint64_t max,
                         std::string_view what);

/** A flat string-to-string configuration map with typed accessors. */
class KvConfig
{
  public:
    KvConfig() = default;

    /** Parse "key = value" lines (comments with '#'); fatal on syntax error. */
    static KvConfig parse(std::string_view text);

    /** Load and parse a file; fatal if unreadable. */
    static KvConfig load(const std::string& path);

    /** Set or overwrite a key. */
    void set(std::string key, std::string value);

    /** True if the key exists. */
    bool has(const std::string& key) const;

    /** Raw string lookup. */
    std::optional<std::string> get(const std::string& key) const;

    /** String with default. */
    std::string get_string(const std::string& key,
                           const std::string& fallback) const;

    /** Integer with default; fatal if present but malformed or out of
     *  range. */
    long long get_int(const std::string& key, long long fallback) const;

    /** Unsigned integer with default; fatal if present but malformed,
     *  negative or above @p max (parse_uint). */
    template <typename T>
    T
    get_uint(const std::string& key, T fallback,
             T max = std::numeric_limits<T>::max()) const
    {
        static_assert(std::is_unsigned_v<T>);
        auto v = get(key);
        return v ? static_cast<T>(parse_uint(*v, max, "KvConfig: key '" +
                                                           key + "'"))
                 : fallback;
    }

    /** Double with default; fatal if present but not parseable. */
    double get_double(const std::string& key, double fallback) const;

    /** Boolean with default; accepts true/false/1/0/yes/no. */
    bool get_bool(const std::string& key, bool fallback) const;

    /** Number of keys. */
    std::size_t size() const { return values_.size(); }

    /** All keys, sorted (validation of expected-key sets). */
    std::vector<std::string> keys() const;

  private:
    std::map<std::string, std::string> values_;
};

}  // namespace artmem

#endif  // ARTMEM_UTIL_CONFIG_HPP
