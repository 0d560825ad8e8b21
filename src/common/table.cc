#include "table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "logging.hh"

namespace prose {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    PROSE_ASSERT(!headers_.empty(), "table needs at least one column");
}

void
Table::addRow(std::vector<std::string> cells)
{
    PROSE_ASSERT(cells.size() == headers_.size(),
                 "row arity ", cells.size(), " != header arity ",
                 headers_.size());
    rows_.push_back(std::move(cells));
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size(), 0);
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << (c ? "  " : "");
            os << std::left << std::setw(static_cast<int>(widths[c]))
               << row[c];
        }
        os << '\n';
    };

    emit_row(headers_);
    std::string rule;
    for (std::size_t c = 0; c < widths.size(); ++c) {
        if (c)
            rule += "  ";
        rule += std::string(widths[c], '-');
    }
    os << rule << '\n';
    for (const auto &row : rows_)
        emit_row(row);
}

std::string
Table::fmt(double v, int decimals)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(decimals) << v;
    return os.str();
}

std::string
Table::fmtInt(long long v)
{
    std::string digits = std::to_string(v < 0 ? -v : v);
    std::string grouped;
    int count = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (count && count % 3 == 0)
            grouped.push_back(',');
        grouped.push_back(*it);
        ++count;
    }
    if (v < 0)
        grouped.push_back('-');
    std::reverse(grouped.begin(), grouped.end());
    return grouped;
}

} // namespace prose
