#include "telemetry/metrics.hpp"

#include <algorithm>
#include <ostream>

#include "util/json.hpp"
#include "util/logging.hpp"

namespace artmem::telemetry {

MetricsRegistry::Id
MetricsRegistry::lookup_or_register(std::string_view name, Kind kind)
{
    const auto it = index_.find(name);
    if (it != index_.end()) {
        if (it->second.first != kind)
            panic("MetricsRegistry: metric '", name,
                  "' re-registered as a different kind");
        return it->second.second;
    }
    Id id = 0;
    switch (kind) {
    case Kind::kCounter:
        id = counters_.size();
        counters_.push_back({std::string(name), 0});
        break;
    case Kind::kGauge:
        id = gauges_.size();
        gauges_.push_back({std::string(name), 0.0, {}});
        break;
    case Kind::kHistogram:
        id = histograms_.size();
        histograms_.push_back({std::string(name), {}, {}, 0, 0.0});
        break;
    }
    index_.emplace(std::string(name), std::make_pair(kind, id));
    return id;
}

MetricsRegistry::Id
MetricsRegistry::counter(std::string_view name)
{
    return lookup_or_register(name, Kind::kCounter);
}

MetricsRegistry::Id
MetricsRegistry::gauge(std::string_view name)
{
    return lookup_or_register(name, Kind::kGauge);
}

MetricsRegistry::Id
MetricsRegistry::histogram(std::string_view name,
                           std::vector<double> upper_bounds)
{
    if (!std::is_sorted(upper_bounds.begin(), upper_bounds.end()))
        panic("MetricsRegistry: histogram '", name,
              "' bounds must be ascending");
    const Id id = lookup_or_register(name, Kind::kHistogram);
    Histogram& h = histograms_[id];
    if (h.buckets.empty()) {
        h.bounds = std::move(upper_bounds);
        h.buckets.assign(h.bounds.size() + 1, 0);
    } else if (h.bounds != upper_bounds) {
        panic("MetricsRegistry: histogram '", name,
              "' re-registered with different bounds");
    }
    return id;
}

void
MetricsRegistry::set(Id id, double value)
{
    Gauge& g = gauges_[id];
    g.last = value;
    g.stats.add(value);
}

void
MetricsRegistry::observe(Id id, double value)
{
    Histogram& h = histograms_[id];
    const auto it =
        std::lower_bound(h.bounds.begin(), h.bounds.end(), value);
    ++h.buckets[static_cast<std::size_t>(it - h.bounds.begin())];
    ++h.total;
    h.sum += value;
}

std::uint64_t
MetricsRegistry::counter_value(std::string_view name) const
{
    const auto it = index_.find(name);
    if (it == index_.end() || it->second.first != Kind::kCounter)
        return 0;
    return counters_[it->second.second].value;
}

const OnlineStats*
MetricsRegistry::gauge_stats(std::string_view name) const
{
    const auto it = index_.find(name);
    if (it == index_.end() || it->second.first != Kind::kGauge)
        return nullptr;
    return &gauges_[it->second.second].stats;
}

std::uint64_t
MetricsRegistry::histogram_count(std::string_view name) const
{
    const auto it = index_.find(name);
    if (it == index_.end() || it->second.first != Kind::kHistogram)
        return 0;
    return histograms_[it->second.second].total;
}

void
MetricsRegistry::merge(const MetricsRegistry& shard)
{
    for (const Counter& c : shard.counters_) {
        const Id id = counter(c.name);
        counters_[id].value += c.value;
    }
    for (const Gauge& g : shard.gauges_) {
        const Id id = gauge(g.name);
        // An empty shard gauge (registered, never set) must not poison
        // the merged extrema; OnlineStats::merge ignores empty inputs
        // and `last` only moves when the shard actually observed one.
        gauges_[id].stats.merge(g.stats);
        if (g.stats.count() > 0)
            gauges_[id].last = g.last;
    }
    for (const Histogram& h : shard.histograms_) {
        const Id id = histogram(h.name, h.bounds);
        Histogram& mine = histograms_[id];
        if (mine.bounds != h.bounds)
            panic("MetricsRegistry::merge: histogram '", h.name,
                  "' bounds mismatch");
        for (std::size_t b = 0; b < h.buckets.size(); ++b)
            mine.buckets[b] += h.buckets[b];
        mine.total += h.total;
        mine.sum += h.sum;
    }
}

void
MetricsRegistry::write_json(std::ostream& os) const
{
    std::string out;
    out += "{\n  \"counters\": {";
    for (std::size_t i = 0; i < counters_.size(); ++i) {
        out += i == 0 ? "\n" : ",\n";
        out += "    ";
        append_json_escaped(out, counters_[i].name);
        out += ": ";
        out += std::to_string(counters_[i].value);
    }
    out += counters_.empty() ? "},\n" : "\n  },\n";
    out += "  \"gauges\": {";
    for (std::size_t i = 0; i < gauges_.size(); ++i) {
        const Gauge& g = gauges_[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    ";
        append_json_escaped(out, g.name);
        out += ": {\"count\": ";
        out += std::to_string(g.stats.count());
        if (g.stats.count() > 0) {
            // min/max/mean are meaningless (and would mislead as 0.0)
            // for a gauge that was never set; emit them only when the
            // gauge holds observations.
            out += ", \"last\": " + json_double(g.last);
            out += ", \"min\": " + json_double(g.stats.min());
            out += ", \"max\": " + json_double(g.stats.max());
            out += ", \"mean\": " + json_double(g.stats.mean());
        }
        out += "}";
    }
    out += gauges_.empty() ? "},\n" : "\n  },\n";
    out += "  \"histograms\": {";
    for (std::size_t i = 0; i < histograms_.size(); ++i) {
        const Histogram& h = histograms_[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    ";
        append_json_escaped(out, h.name);
        out += ": {\"total\": " + std::to_string(h.total);
        out += ", \"sum\": " + json_double(h.sum);
        out += ", \"buckets\": [";
        for (std::size_t b = 0; b < h.buckets.size(); ++b) {
            if (b > 0)
                out += ", ";
            out += "{\"le\": ";
            out += b < h.bounds.size() ? json_double(h.bounds[b])
                                       : std::string("\"inf\"");
            out += ", \"count\": " + std::to_string(h.buckets[b]) + "}";
        }
        out += "]}";
    }
    out += histograms_.empty() ? "}\n" : "\n  }\n";
    out += "}\n";
    os << out;
}

std::vector<std::pair<std::string, std::string>>
MetricsRegistry::summary_rows() const
{
    std::vector<std::pair<std::string, std::string>> rows;
    rows.reserve(counters_.size() + gauges_.size() + histograms_.size());
    for (const Counter& c : counters_)
        rows.emplace_back(c.name, std::to_string(c.value));
    for (const Gauge& g : gauges_) {
        if (g.stats.count() == 0) {
            rows.emplace_back(g.name, "-");
            continue;
        }
        rows.emplace_back(g.name, json_double(g.last) + " (" +
                                      json_double(g.stats.min()) + "/" +
                                      json_double(g.stats.mean()) + "/" +
                                      json_double(g.stats.max()) + ")");
    }
    for (const Histogram& h : histograms_)
        rows.emplace_back(h.name, std::to_string(h.total) + " samples");
    return rows;
}

}  // namespace artmem::telemetry
