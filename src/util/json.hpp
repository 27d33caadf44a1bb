/**
 * @file
 * Tiny JSON emission helpers shared by Table's JSON writer and the
 * telemetry writers (metrics.cpp, trace.cpp). Formatting is fully
 * deterministic: the same values always produce the same bytes, which
 * is what the bit-identity contract of the telemetry subsystem rests
 * on (DESIGN.md §8).
 */
#ifndef ARTMEM_UTIL_JSON_HPP
#define ARTMEM_UTIL_JSON_HPP

#include <cstdio>
#include <string>
#include <string_view>

namespace artmem {

/** Append @p text JSON-escaped (quotes, backslashes, control chars). */
inline void
append_json_escaped(std::string& out, std::string_view text)
{
    out.push_back('"');
    for (char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            out.push_back(c);
            break;
        }
    }
    out.push_back('"');
}

/**
 * Shortest round-trippable decimal for @p value ("%.9g" keeps every
 * digit a float-derived double in this codebase carries). Non-finite
 * values are not valid JSON numbers; emit null so the stream stays
 * parseable.
 */
inline std::string
json_double(double value)
{
    char buf[40];
    if (value != value || value > 1.7e308 || value < -1.7e308)
        return "null";
    std::snprintf(buf, sizeof buf, "%.9g", value);
    return buf;
}

/** Fixed-precision decimal (Chrome trace timestamps in microseconds). */
inline std::string
json_fixed(double value, int precision)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.*f", precision, value);
    return buf;
}

}  // namespace artmem

#endif  // ARTMEM_UTIL_JSON_HPP
