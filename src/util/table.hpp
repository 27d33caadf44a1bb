/**
 * @file
 * The one result-emission path: a labelled row store that prints as an
 * aligned table or as CSV. The bench harnesses, `artmem sweep` and the
 * examples build one per paper table or figure.
 *
 * Thread contract: a Table is confined to the harness thread. Sweep
 * jobs never touch it; they return RunResults, and the harness folds
 * them into rows in job-index order after SweepRunner returns, which
 * keeps --jobs N output byte-identical to --jobs 1 (DESIGN.md §7).
 */
#ifndef ARTMEM_UTIL_TABLE_HPP
#define ARTMEM_UTIL_TABLE_HPP

#include <iosfwd>
#include <string>
#include <vector>

namespace artmem {

/** Collects rows of string cells and prints them aligned or as CSV. */
class Table
{
  public:
    /** Output format selected by the harness flag --csv. */
    enum class Format { kTable, kCsv };

    /** Create a table with the given column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Append a fully formed row; must match the header width. */
    void add_row(std::vector<std::string> cells);

    /** Begin building a row cell-by-cell. */
    Table& row();

    /** Append a string cell to the row under construction. */
    Table& cell(std::string value);

    /** Append a numeric cell with fixed precision. */
    Table& cell(double value, int precision = 3);

    /** Append an integer cell. */
    Table& cell(std::uint64_t value);

    /**
     * Print in @p format: aligned with a separator rule under the
     * header, or CSV (comma-separated, no quoting of commas needed
     * here). Whether the bytes arrived is checked once, at exit
     * (finish_stdout, util/output.hpp).
     */
    void emit(std::ostream& os, Format format);

  private:
    void flush_pending();
    void print_aligned(std::ostream& os);
    void print_csv(std::ostream& os);

    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
    std::vector<std::string> pending_;
    bool has_pending_ = false;
};

/** Format a double with fixed precision into a string. */
std::string format_fixed(double value, int precision);

}  // namespace artmem

#endif  // ARTMEM_UTIL_TABLE_HPP
