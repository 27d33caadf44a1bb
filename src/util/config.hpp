/**
 * @file
 * Minimal key=value configuration store, in the spirit of MASIM's plain
 * text workload configs. Supports '#' comments, section-free files, and
 * typed getters with defaults. Every error names the source: the file
 * load() read, or "KvConfig" for text given to parse().
 */
#ifndef ARTMEM_UTIL_CONFIG_HPP
#define ARTMEM_UTIL_CONFIG_HPP

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace artmem {

/**
 * Parse all of @p text as a decimal unsigned integer no larger than
 * @p max; leading zeros are decimal too ("010" is 10). fatal() naming
 * @p what if it is malformed, starts with '-' (strtoull would wrap "-1"
 * to the largest value) or '+', carries a "0x" prefix, or exceeds
 * @p max.
 */
std::uint64_t parse_uint(const std::string& text, std::uint64_t max,
                         std::string_view what);

/**
 * Parse all of @p text as a finite double. fatal() naming @p what if it
 * is malformed or not finite: strtod reads "nan" and "inf", and NaN
 * slips past every range check, since each comparison with it is false.
 */
double parse_double(const std::string& text, std::string_view what);

/** A flat string-to-string configuration map with typed accessors. */
class KvConfig
{
  public:
    KvConfig() = default;

    /**
     * Parse "key = value" lines (comments with '#'); fatal on syntax
     * error, naming @p source and the line.
     */
    static KvConfig parse(std::string_view text,
                          std::string source = "KvConfig");

    /** Load and parse a file; fatal if unreadable. Errors name @p path. */
    static KvConfig load(const std::string& path);

    /** What errors name: the path load() read, or parse()'s source. */
    const std::string& source() const { return source_; }

    /**
     * fatal() on the first key not in @p known, naming the source and
     * the key: a typo must fail, not fall back to the default.
     */
    void reject_unknown(std::span<const std::string_view> known) const;

    /** Set or overwrite a key. */
    void set(std::string key, std::string value);

    /** True if the key exists. */
    bool has(const std::string& key) const;

    /** Raw string lookup. */
    std::optional<std::string> get(const std::string& key) const;

    /** String with default. */
    std::string get_string(const std::string& key,
                           const std::string& fallback) const;

    /** Unsigned integer with default; fatal if present but malformed,
     *  negative or above @p max (parse_uint). */
    template <typename T>
    T
    get_uint(const std::string& key, T fallback,
             T max = std::numeric_limits<T>::max()) const
    {
        static_assert(std::is_unsigned_v<T>);
        auto v = get(key);
        return v ? static_cast<T>(parse_uint(*v, max, key_what(key)))
                 : fallback;
    }

    /** Double with default; fatal if present but malformed or not
     *  finite (parse_double). */
    double get_double(const std::string& key, double fallback) const;

    /** Boolean with default; accepts true/false/1/0/yes/no. */
    bool get_bool(const std::string& key, bool fallback) const;

    /** Number of keys. */
    std::size_t size() const { return values_.size(); }

    /** All keys, sorted (validation of expected-key sets). */
    std::vector<std::string> keys() const;

  private:
    /** "<source>: key '<key>'", the start of a value error. */
    std::string key_what(const std::string& key) const;

    std::string source_ = "KvConfig";
    std::map<std::string, std::string> values_;
};

}  // namespace artmem

#endif  // ARTMEM_UTIL_CONFIG_HPP
