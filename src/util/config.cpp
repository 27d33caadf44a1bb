#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/logging.hpp"

namespace artmem {

namespace {

std::string
trim(std::string_view s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return std::string(s.substr(b, e - b));
}

}  // namespace

std::uint64_t
parse_uint(const std::string& text, std::uint64_t max, std::string_view what)
{
    const std::size_t first = text.find_first_not_of(" \t\n\v\f\r");
    if (first != std::string::npos && text[first] == '-')
        fatal(what, " must not be negative, got '", text, "'");
    // Decimal digits only. strtoull also takes a '+' sign, and with base
    // 0 it would read "0x1000" as hex and "010000" as octal: both 4096.
    if (first != std::string::npos && text[first] == '+')
        fatal(what, " must be written without a sign, got '", text, "'");
    if (first != std::string::npos && text[first] == '0' &&
        first + 1 < text.size() &&
        (text[first + 1] == 'x' || text[first + 1] == 'X'))
        fatal(what, " must be a decimal integer, got '", text, "'");
    char* end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        fatal(what, " expects an unsigned integer, got '", text, "'");
    if (errno == ERANGE || parsed > max)
        fatal(what, " is out of range: '", text, "' (max ", max, ")");
    return parsed;
}

double
parse_double(const std::string& text, std::string_view what)
{
    char* end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        fatal(what, " expects a number, got '", text, "'");
    if (!std::isfinite(parsed))
        fatal(what, " must be finite, got '", text, "'");
    return parsed;
}

KvConfig
KvConfig::parse(std::string_view text, std::string source)
{
    KvConfig cfg;
    cfg.source_ = std::move(source);
    std::size_t pos = 0;
    int line_no = 0;
    while (pos <= text.size()) {
        ++line_no;
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string_view::npos)
            eol = text.size();
        std::string_view line = text.substr(pos, eol - pos);
        pos = eol + 1;
        const std::size_t hash = line.find('#');
        if (hash != std::string_view::npos)
            line = line.substr(0, hash);
        const std::string stripped = trim(line);
        if (stripped.empty())
            continue;
        const std::size_t eq = stripped.find('=');
        if (eq == std::string::npos)
            fatal(cfg.source_, ": missing '=' on line ", line_no, ": ",
                  stripped);
        std::string key = trim(std::string_view(stripped).substr(0, eq));
        std::string value = trim(std::string_view(stripped).substr(eq + 1));
        if (key.empty())
            fatal(cfg.source_, ": empty key on line ", line_no);
        cfg.set(std::move(key), std::move(value));
        if (pos > text.size())
            break;
    }
    return cfg;
}

KvConfig
KvConfig::load(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("KvConfig: cannot open ", path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse(buffer.str(), path);
}

void
KvConfig::reject_unknown(std::span<const std::string_view> known) const
{
    for (const auto& [key, value] : values_) {
        if (std::find(known.begin(), known.end(), key) == known.end())
            fatal(source_, ": unknown key '", key, "'");
    }
}

std::string
KvConfig::key_what(const std::string& key) const
{
    return source_ + ": key '" + key + "'";
}

void
KvConfig::set(std::string key, std::string value)
{
    values_[std::move(key)] = std::move(value);
}

bool
KvConfig::has(const std::string& key) const
{
    return values_.count(key) != 0;
}

std::optional<std::string>
KvConfig::get(const std::string& key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return std::nullopt;
    return it->second;
}

std::string
KvConfig::get_string(const std::string& key, const std::string& fallback) const
{
    auto v = get(key);
    return v ? *v : fallback;
}

double
KvConfig::get_double(const std::string& key, double fallback) const
{
    auto v = get(key);
    return v ? parse_double(*v, key_what(key)) : fallback;
}

std::vector<std::string>
KvConfig::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto& [key, value] : values_)
        out.push_back(key);
    return out;
}

bool
KvConfig::get_bool(const std::string& key, bool fallback) const
{
    auto v = get(key);
    if (!v)
        return fallback;
    std::string lower = *v;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower == "true" || lower == "1" || lower == "yes")
        return true;
    if (lower == "false" || lower == "0" || lower == "no")
        return false;
    fatal(key_what(key), " is not a boolean: ", *v);
}

}  // namespace artmem
