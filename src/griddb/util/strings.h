// Small string helpers shared across modules.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace griddb {

/// Lower-cases ASCII characters; non-ASCII bytes pass through untouched.
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Splits on a single-character separator. "a,,b" -> {"a", "", "b"}.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits and trims each piece, dropping empty pieces.
std::vector<std::string> SplitTrimmed(std::string_view s, char sep);

std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// Parses a whole string as a signed 64-bit integer. Rejects partial parses.
bool ParseInt64(std::string_view s, int64_t* out);
/// Parses a whole string as a double. Rejects partial parses and overflow;
/// underflow yields the correctly rounded subnormal or zero.
bool ParseDouble(std::string_view s, double* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace griddb
