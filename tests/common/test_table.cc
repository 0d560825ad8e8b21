/** @file Tests for the table/CSV emitters. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/table.hh"

namespace prose {
namespace {

TEST(Table, PrintsHeaderRuleAndRows)
{
    Table table({ "name", "value" });
    table.addRow({ "alpha", "1" });
    table.addRow({ "beta", "22" });
    std::ostringstream os;
    table.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("----"), std::string::npos);
    EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, ColumnsAligned)
{
    Table table({ "a", "long-header" });
    table.addRow({ "xxxxxxxx", "1" });
    std::ostringstream os;
    table.print(os);
    // Both data columns start at the same offset in each line.
    std::istringstream lines(os.str());
    std::string header, rule, row;
    std::getline(lines, header);
    std::getline(lines, rule);
    std::getline(lines, row);
    EXPECT_EQ(header.find("long-header"), row.find("1"));
}

TEST(Table, FmtFixedDecimals)
{
    EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(Table::fmt(2.0, 0), "2");
    EXPECT_EQ(Table::fmt(-0.5, 1), "-0.5");
}

TEST(Table, FmtIntGroupsThousands)
{
    EXPECT_EQ(Table::fmtInt(16384), "16,384");
    EXPECT_EQ(Table::fmtInt(1000000), "1,000,000");
    EXPECT_EQ(Table::fmtInt(-4096), "-4,096");
    EXPECT_EQ(Table::fmtInt(7), "7");
}

TEST(TableDeathTest, RowArityMismatchPanics)
{
    Table table({ "a", "b" });
    EXPECT_DEATH(table.addRow({ "only-one" }), "arity");
}

} // namespace
} // namespace prose
