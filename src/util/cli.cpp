#include "util/cli.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/logging.hpp"

namespace artmem {

CliArgs
CliArgs::parse(int argc, char** argv)
{
    CliArgs args;
    args.program_ = argc > 0 ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
        std::string tok = argv[i];
        if (tok.rfind("--", 0) != 0) {
            args.positional_.push_back(std::move(tok));
            continue;
        }
        std::string body = tok.substr(2);
        const std::size_t eq = body.find('=');
        if (eq != std::string::npos) {
            // "--name=value" carries a value; a bare "--name" is boolean.
            args.flags_[body.substr(0, eq)] = body.substr(eq + 1);
        } else {
            args.flags_[body] = "";
        }
    }
    return args;
}

bool
CliArgs::has(const std::string& name) const
{
    return flags_.count(name) != 0;
}

std::vector<std::string>
CliArgs::flag_names() const
{
    std::vector<std::string> out;
    out.reserve(flags_.size());
    for (const auto& [name, value] : flags_)
        out.push_back(name);
    return out;
}

void
CliArgs::reject_unknown(
    std::initializer_list<std::span<const std::string_view>> known,
    std::string_view hint) const
{
    for (const auto& [name, value] : flags_) {
        const bool listed =
            std::any_of(known.begin(), known.end(), [&](auto names) {
                return std::find(names.begin(), names.end(), name) !=
                       names.end();
            });
        if (!listed)
            fatal("unknown flag --", name, " (", hint, ")");
    }
}

std::string
CliArgs::get_string(const std::string& name, const std::string& fallback) const
{
    auto it = flags_.find(name);
    return it == flags_.end() ? fallback : it->second;
}

long long
CliArgs::get_int(const std::string& name, long long fallback) const
{
    auto it = flags_.find(name);
    return it == flags_.end() ? fallback
                              : parse_int(it->second, "flag --" + name);
}

double
CliArgs::get_double(const std::string& name, double fallback) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return fallback;
    char* end = nullptr;
    const double parsed = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        fatal("flag --", name, " expects a number, got '", it->second, "'");
    return parsed;
}

bool
CliArgs::get_bool(const std::string& name, bool fallback) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return fallback;
    if (it->second.empty() || it->second == "true" || it->second == "1")
        return true;
    if (it->second == "false" || it->second == "0")
        return false;
    fatal("flag --", name, " expects a boolean, got '", it->second, "'");
}

}  // namespace artmem
