/**
 * @file
 * Tiny command-line flag parser shared by the bench harnesses and
 * examples. Supports --name=value and boolean --name forms.
 */
#ifndef ARTMEM_UTIL_CLI_HPP
#define ARTMEM_UTIL_CLI_HPP

#include <initializer_list>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/config.hpp"

namespace artmem {

/** Parsed command line: flags plus positional arguments. */
class CliArgs
{
  public:
    /** Parse argv; unknown flags are kept (harnesses share flag sets). */
    static CliArgs parse(int argc, char** argv);

    /** True if --name was given (with or without a value). */
    bool has(const std::string& name) const;

    /** String flag with default. */
    std::string get_string(const std::string& name,
                           const std::string& fallback) const;

    /** Unsigned integer flag with default; fatal if malformed, negative
     *  or above @p max (parse_uint). */
    template <typename T>
    T
    get_uint(const std::string& name, T fallback,
             T max = std::numeric_limits<T>::max()) const
    {
        static_assert(std::is_unsigned_v<T>);
        auto it = flags_.find(name);
        return it == flags_.end()
                   ? fallback
                   : static_cast<T>(parse_uint(it->second, max,
                                               "flag --" + name));
    }

    /** Double flag with default; fatal if malformed or not finite
     *  (parse_double). */
    double get_double(const std::string& name, double fallback) const;

    /** Boolean flag: present without value or with true/false. */
    bool get_bool(const std::string& name, bool fallback) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string>& positional() const { return positional_; }

    /**
     * fatal() on the first flag given that is in none of the @p known
     * name lists, naming it and then @p hint (where the valid flags are
     * listed). A typo must fail, not silently run the default
     * configuration.
     */
    void reject_unknown(
        std::initializer_list<std::span<const std::string_view>> known,
        std::string_view hint) const;

  private:
    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;
};

}  // namespace artmem

#endif  // ARTMEM_UTIL_CLI_HPP
