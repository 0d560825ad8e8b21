/**
 * @file
 * Plain-text table and CSV emitters used by the benchmark harness to print
 * the paper's tables and figure series in a uniform format.
 */

#ifndef PROSE_COMMON_TABLE_HH
#define PROSE_COMMON_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace prose {

/**
 * Accumulates rows of strings and pretty-prints them with aligned columns.
 * Numeric cells can be added through the fmt() helpers.
 */
class Table
{
  public:
    /** Create a table with the given column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Append one row; must match the header arity. */
    void addRow(std::vector<std::string> cells);

    /** Number of data rows so far. */
    std::size_t rows() const { return rows_.size(); }

    /** Render with box-drawing-free ASCII alignment. */
    void print(std::ostream &os) const;

    /** Format a double with fixed decimals. */
    static std::string fmt(double v, int decimals = 2);

    /** Format an integer with thousands grouping. */
    static std::string fmtInt(long long v);

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace prose

#endif // PROSE_COMMON_TABLE_HH
