#ifndef MQD_UTIL_STRING_UTIL_H_
#define MQD_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace mqd {

/// Splits `input` on any occurrence of `delim`, optionally keeping
/// empty fields.
std::vector<std::string> Split(std::string_view input, char delim,
                               bool keep_empty = false);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// ASCII lower-casing (sufficient for our synthetic corpora).
std::string ToLower(std::string_view input);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view input);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats a double with `digits` significant decimals, trimming
/// trailing zeros ("1.25", "3", "0.004").
std::string FormatDouble(double value, int digits = 4);

/// Human-friendly duration from seconds ("45s", "10m", "2h").
std::string FormatDurationSeconds(double seconds);

}  // namespace mqd

#endif  // MQD_UTIL_STRING_UTIL_H_
