#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/logging.hpp"

namespace artmem {

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
    }
}

}  // namespace artmem
