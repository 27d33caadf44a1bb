/**
 * @file
 * Minimal logging and error-exit helpers, in the spirit of gem5's
 * warn()/fatal()/panic() split: fatal() is a user error (bad
 * configuration), panic() is an internal invariant violation.
 */
#ifndef ARTMEM_UTIL_LOGGING_HPP
#define ARTMEM_UTIL_LOGGING_HPP

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string_view>

namespace artmem {

namespace detail {

void emit(std::string_view tag, std::string_view msg);

template <typename... Args>
std::string
format_args(Args&&... args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

}  // namespace detail

/** Warn about suspicious but survivable conditions; always printed. */
template <typename... Args>
void
warn(Args&&... args)
{
    detail::emit("warn", detail::format_args(std::forward<Args>(args)...));
}

/** Terminate due to a user/configuration error (exit(1)). */
template <typename... Args>
[[noreturn]] void
fatal(Args&&... args)
{
    detail::emit("fatal", detail::format_args(std::forward<Args>(args)...));
    std::exit(1);
}

/** Terminate due to an internal bug (abort()). */
template <typename... Args>
[[noreturn]] void
panic(Args&&... args)
{
    detail::emit("panic", detail::format_args(std::forward<Args>(args)...));
    std::abort();
}

}  // namespace artmem

#endif  // ARTMEM_UTIL_LOGGING_HPP
