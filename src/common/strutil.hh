/**
 * @file
 * Small string utilities used by FASTA parsing, CLI handling, and report
 * formatting — plus the checked numeric conversions every text loader
 * must use instead of naked strtol/strtod/std::stoi (enforced by the
 * prose_lint `checked-parse` rule). The checked parsers consume the
 * whole string, report overflow instead of clamping or wrapping, and
 * never accept sign/whitespace prefixes on unsigned fields — the
 * failure modes the fuzz harnesses found in the hand-rolled call sites.
 */

#ifndef PROSE_COMMON_STRUTIL_HH
#define PROSE_COMMON_STRUTIL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace prose {

/** Split on a single character; keeps empty fields. */
std::vector<std::string> split(const std::string &s, char sep);

/** Strip ASCII whitespace from both ends. */
std::string trim(const std::string &s);

/** Uppercase ASCII copy. */
std::string toUpper(const std::string &s);

/** @name Checked numeric conversion
 *
 * Each parser returns true and writes `out` only when `text` is
 * exactly one well-formed number with nothing before or after it;
 * on any failure `out` is untouched and false is returned. Overflow
 * is a failure, never a clamp or a silent wrap.
 * @{ */

/**
 * Parse a base-10 unsigned 64-bit integer. Digits only: no leading
 * whitespace, no '+'/'-' (a '-' before an unsigned field must be a
 * reported error, not a two's-complement wrap), no hex, no empty
 * string. Fails on values above 2^64-1.
 */
bool parseU64(const std::string &text, std::uint64_t &out);

/** parseU64 restricted to [0, 2^32-1]; larger values fail instead of
 *  being truncated to the low 32 bits. */
bool parseU32(const std::string &text, std::uint32_t &out);

/**
 * Parse a double with strtod syntax but full-string consumption.
 * Accepts infinities and NaNs spelled literally ("inf", "nan");
 * callers holding a range contract should use parseFiniteDouble.
 * Out-of-range magnitudes (overflow to +-inf) are a failure.
 */
bool parseDouble(const std::string &text, double &out);

/** parseDouble that additionally rejects non-finite results — the
 *  right spelling for every rate/time/fraction field a validator will
 *  range-check, since NaN slides through `x < lo || x > hi`. */
bool parseFiniteDouble(const std::string &text, double &out);

/** @} */

} // namespace prose

#endif // PROSE_COMMON_STRUTIL_HH
