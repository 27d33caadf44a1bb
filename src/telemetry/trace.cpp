#include "telemetry/trace.hpp"

#include <array>
#include <ostream>

#include "util/json.hpp"
#include "util/logging.hpp"

namespace artmem::telemetry {

namespace {

constexpr std::array<std::string_view, 5> kCategoryNames = {
    "engine", "migration", "pebs", "rl", "threshold"};

}  // namespace

std::string_view
category_name(Category cat)
{
    return kCategoryNames[category_track(cat)];
}

unsigned
category_track(Category cat)
{
    const auto bits = static_cast<std::uint32_t>(cat);
    unsigned track = 0;
    while ((bits >> (track + 1)) != 0)
        ++track;
    return track;
}

std::uint32_t
parse_categories(std::string_view csv)
{
    if (csv == "all")
        return kAllCategories;
    if (csv == "none" || csv.empty())
        return 0;
    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string_view::npos)
            comma = csv.size();
        const std::string_view token = csv.substr(pos, comma - pos);
        bool found = false;
        for (std::size_t bit = 0; bit < kCategoryNames.size(); ++bit) {
            if (token == kCategoryNames[bit]) {
                mask |= 1u << bit;
                found = true;
                break;
            }
        }
        if (!found)
            fatal("unknown trace category '", token,
                  "' (expected all, none, or a comma list of: engine, "
                  "migration, pebs, rl, threshold)");
        pos = comma + 1;
    }
    return mask;
}

void
Args::key(std::string_view k)
{
    body_ += body_.empty() ? "{" : ",";
    append_json_escaped(body_, k);
    body_ += ":";
}

Args&
Args::add(std::string_view k, std::uint64_t value)
{
    key(k);
    body_ += std::to_string(value);
    return *this;
}

Args&
Args::add(std::string_view k, std::int64_t value)
{
    key(k);
    body_ += std::to_string(value);
    return *this;
}

Args&
Args::add(std::string_view k, std::uint32_t value)
{
    return add(k, static_cast<std::uint64_t>(value));
}

Args&
Args::add(std::string_view k, std::int32_t value)
{
    return add(k, static_cast<std::int64_t>(value));
}

Args&
Args::add(std::string_view k, double value)
{
    key(k);
    body_ += json_double(value);
    return *this;
}

Args&
Args::add(std::string_view k, std::string_view value)
{
    key(k);
    append_json_escaped(body_, value);
    return *this;
}

Args&
Args::add(std::string_view k, const char* value)
{
    return add(k, std::string_view(value));
}

std::string
Args::str()
{
    if (body_.empty())
        return "{}";
    body_ += "}";
    return std::move(body_);
}

void
TraceSink::instant(Category cat, std::string_view name, std::uint64_t ts_ns,
                   std::string args)
{
    events_.push_back(
        {ts_ns, 0, cat, 'i', std::string(name), std::move(args)});
}

void
TraceSink::complete(Category cat, std::string_view name, std::uint64_t ts_ns,
                    std::uint64_t dur_ns, std::string args)
{
    events_.push_back(
        {ts_ns, dur_ns, cat, 'X', std::string(name), std::move(args)});
}

void
TraceSink::write_jsonl(std::ostream& os, int job) const
{
    std::string line;
    for (const Event& e : events_) {
        line.clear();
        line += "{";
        if (job >= 0) {
            line += "\"job\":";
            line += std::to_string(job);
            line += ",";
        }
        line += "\"ts\":";
        line += std::to_string(e.ts_ns);
        line += ",\"cat\":";
        append_json_escaped(line, category_name(e.cat));
        line += ",\"ph\":\"";
        line.push_back(e.phase);
        line += "\",\"name\":";
        append_json_escaped(line, e.name);
        if (e.phase == 'X') {
            line += ",\"dur\":";
            line += std::to_string(e.dur_ns);
        }
        line += ",\"args\":";
        line += e.args;
        line += "}\n";
        os << line;
    }
}

namespace {

/** Exact ns -> µs decimal ("1234567" -> "1234.567"): pure integer
 *  math, so identical inputs always produce identical bytes. */
std::string
chrome_us(std::uint64_t ns)
{
    std::string out = std::to_string(ns / 1000);
    const std::uint64_t frac = ns % 1000;
    out += '.';
    out += static_cast<char>('0' + frac / 100);
    out += static_cast<char>('0' + frac / 10 % 10);
    out += static_cast<char>('0' + frac % 10);
    return out;
}

}  // namespace

void
TraceSink::append_chrome_events(std::ostream& os, int pid, bool& first) const
{
    std::string line;
    for (std::size_t bit = 0; bit < kCategoryNames.size(); ++bit) {
        if ((categories_ & (1u << bit)) == 0)
            continue;
        line.clear();
        line += first ? "\n" : ",\n";
        first = false;
        line += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
        line += std::to_string(pid);
        line += ",\"tid\":";
        line += std::to_string(bit);
        line += ",\"args\":{\"name\":";
        append_json_escaped(line, kCategoryNames[bit]);
        line += "}}";
        os << line;
    }
    for (const Event& e : events_) {
        line.clear();
        line += first ? "\n" : ",\n";
        first = false;
        line += "{\"name\":";
        append_json_escaped(line, e.name);
        line += ",\"cat\":";
        append_json_escaped(line, category_name(e.cat));
        line += ",\"ph\":\"";
        line.push_back(e.phase);
        line += "\",\"ts\":";
        line += chrome_us(e.ts_ns);
        if (e.phase == 'X') {
            line += ",\"dur\":";
            line += chrome_us(e.dur_ns);
        }
        if (e.phase == 'i')
            line += ",\"s\":\"t\"";
        line += ",\"pid\":";
        line += std::to_string(pid);
        line += ",\"tid\":";
        line += std::to_string(category_track(e.cat));
        line += ",\"args\":";
        line += e.args;
        line += "}";
        os << line;
    }
}

void
TraceSink::write_chrome(std::ostream& os) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    append_chrome_events(os, 0, first);
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace artmem::telemetry
