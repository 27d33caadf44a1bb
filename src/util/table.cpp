#include "util/table.hpp"

#include <algorithm>
#include <cctype>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/json.hpp"
#include "util/logging.hpp"

namespace artmem {

namespace {

/**
 * True when @p text is a plain JSON-compatible number (the output of
 * format_fixed / std::to_string): optional sign, digits, optional
 * fraction, optional exponent. "nan"/"inf" and ratio labels like
 * "1:16" fail and are emitted as quoted strings instead.
 */
bool
is_json_number(const std::string& text)
{
    std::size_t i = 0;
    const auto digits = [&] {
        std::size_t start = i;
        while (i < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[i])))
            ++i;
        return i > start;
    };
    if (i < text.size() && text[i] == '-')
        ++i;
    if (!digits())
        return false;
    if (i < text.size() && text[i] == '.') {
        ++i;
        if (!digits())
            return false;
    }
    if (i < text.size() && (text[i] == 'e' || text[i] == 'E')) {
        ++i;
        if (i < text.size() && (text[i] == '-' || text[i] == '+'))
            ++i;
        if (!digits())
            return false;
    }
    return i == text.size();
}

}  // namespace

std::string
format_fixed(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{
    if (headers_.empty())
        panic("Table requires at least one column");
}

void
Table::add_row(std::vector<std::string> cells)
{
    flush_pending();
    if (cells.size() != headers_.size())
        panic("Table row width ", cells.size(), " != header width ",
              headers_.size());
    rows_.push_back(std::move(cells));
}

Table&
Table::row()
{
    flush_pending();
    has_pending_ = true;
    pending_.clear();
    return *this;
}

Table&
Table::cell(std::string value)
{
    if (!has_pending_)
        panic("Table::cell without row()");
    pending_.push_back(std::move(value));
    return *this;
}

Table&
Table::cell(double value, int precision)
{
    return cell(format_fixed(value, precision));
}

Table&
Table::cell(std::uint64_t value)
{
    return cell(std::to_string(value));
}

void
Table::flush_pending()
{
    if (!has_pending_)
        return;
    has_pending_ = false;
    std::vector<std::string> cells;
    cells.swap(pending_);
    add_row(std::move(cells));
}

void
Table::print_aligned(std::ostream& os)
{
    flush_pending();
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit_row = [&](const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c]))
               << cells[c];
            if (c + 1 < cells.size())
                os << "  ";
        }
        os << "\n";
    };

    emit_row(headers_);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    os << std::string(total > 2 ? total - 2 : total, '-') << "\n";
    for (const auto& row : rows_)
        emit_row(row);
}

void
Table::print_csv(std::ostream& os)
{
    flush_pending();
    auto emit_row = [&](const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << cells[c];
            if (c + 1 < cells.size())
                os << ",";
        }
        os << "\n";
    };
    emit_row(headers_);
    for (const auto& row : rows_)
        emit_row(row);
}

void
Table::emit(std::ostream& os, Format format)
{
    switch (format) {
    case Format::kTable:
        print_aligned(os);
        break;
    case Format::kCsv:
        print_csv(os);
        break;
    case Format::kJson:
        print_json(os);
        break;
    }
}

void
Table::print_json(std::ostream& os)
{
    flush_pending();
    std::string out = "[\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        out += "  {";
        for (std::size_t c = 0; c < rows_[r].size(); ++c) {
            append_json_escaped(out, headers_[c]);
            out += ": ";
            if (is_json_number(rows_[r][c]))
                out += rows_[r][c];
            else
                append_json_escaped(out, rows_[r][c]);
            if (c + 1 < rows_[r].size())
                out += ", ";
        }
        out += r + 1 < rows_.size() ? "},\n" : "}\n";
    }
    out += "]\n";
    os << out;
}

}  // namespace artmem
