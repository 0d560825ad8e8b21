#include "strutil.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace prose {

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char ch : s) {
        if (ch == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(ch);
        }
    }
    out.push_back(cur);
    return out;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
toUpper(const std::string &s)
{
    std::string out = s;
    for (char &ch : out)
        ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
    return out;
}

bool
parseU64(const std::string &text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    std::uint64_t value = 0;
    for (char ch : text) {
        if (!std::isdigit(static_cast<unsigned char>(ch)))
            return false;
        const auto digit = static_cast<std::uint64_t>(ch - '0');
        if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
            return false;
        value = value * 10 + digit;
    }
    out = value;
    return true;
}

bool
parseU32(const std::string &text, std::uint32_t &out)
{
    std::uint64_t wide = 0;
    if (!parseU64(text, wide) ||
        wide > std::numeric_limits<std::uint32_t>::max())
        return false;
    out = static_cast<std::uint32_t>(wide);
    return true;
}

bool
parseDouble(const std::string &text, double &out)
{
    if (text.empty() ||
        std::isspace(static_cast<unsigned char>(text.front())))
        return false; // strtod would silently skip leading whitespace
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || end == text.c_str())
        return false;
    // ERANGE covers both overflow (+-HUGE_VAL) and underflow; treat
    // only overflow as a failure — a denormal-or-zero underflow is the
    // closest representable value, not a lie about magnitude.
    if (errno == ERANGE && std::isinf(value))
        return false;
    out = value;
    return true;
}

bool
parseFiniteDouble(const std::string &text, double &out)
{
    double value = 0.0;
    if (!parseDouble(text, value) || !std::isfinite(value))
        return false;
    out = value;
    return true;
}

} // namespace prose
