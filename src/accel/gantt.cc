#include "gantt.hh"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/logging.hh"

namespace prose {

namespace {

/** Rows printed before the rest are summarized in one line. */
constexpr std::size_t kMaxRows = 40;

/** Activity symbol for a dataflow kind. */
char
symbolFor(DataflowKind kind)
{
    switch (kind) {
      case DataflowKind::Dataflow1:
        return '1';
      case DataflowKind::Dataflow2:
        return '2';
      case DataflowKind::Dataflow3:
        return '3';
      case DataflowKind::Host:
        return 'h';
    }
    return '?';
}

} // namespace

void
renderGantt(std::ostream &out, const SimReport &report,
            const GanttOptions &options)
{
    PROSE_ASSERT(!report.schedule.empty(),
                 "gantt needs a recorded schedule");
    PROSE_ASSERT(options.columns >= 8, "gantt needs some width");
    const double span = report.makespan;
    PROSE_ASSERT(span > 0.0, "empty makespan");
    const double bucket = span / static_cast<double>(options.columns);

    // Row key: thread id or pool index.
    auto row_of = [&](const ScheduledItem &item) {
        return options.perPool ? item.arrayIndex
                               : static_cast<int>(item.thread);
    };

    std::map<int, std::string> rows;
    for (const ScheduledItem &item : report.schedule) {
        const int row = row_of(item);
        if (options.perPool && row < 0)
            continue; // host work has no pool row
        auto [it, inserted] =
            rows.try_emplace(row, std::string(options.columns, '.'));
        std::string &line = it->second;
        const double end =
            options.perPool ? item.poolEnd : item.end;
        const double last_col =
            static_cast<double>(options.columns) - 1.0;
        const auto first = static_cast<std::size_t>(
            std::min<double>(last_col, item.start / bucket));
        const auto last = static_cast<std::size_t>(std::min<double>(
            last_col, std::max(item.start, end - 1e-15) / bucket));
        for (std::size_t col = first; col <= last; ++col)
            line[col] = symbolFor(item.kind);
    }

    out << "time ->  0";
    out << std::string(options.columns > 12 ? options.columns - 12 : 1,
                       ' ');
    out << "makespan\n";
    std::size_t printed = 0;
    for (const auto &[row, line] : rows) {
        if (printed++ >= kMaxRows) {
            out << "  ... (" << rows.size() - kMaxRows
                << " more rows)\n";
            break;
        }
        if (options.perPool) {
            out << "pool " << toString(kArrayTypes[row]) << "   |" << line
                << "|\n";
        } else {
            out << "thread " << row << (row < 10 ? " " : "") << "|"
                << line << "|\n";
        }
    }
    out << "legend: 1/2/3 = Dataflow 1/2/3, h = host op, . = idle\n";
}

} // namespace prose
