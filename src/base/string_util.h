#ifndef PDX_BASE_STRING_UTIL_H_
#define PDX_BASE_STRING_UTIL_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace pdx {

namespace internal_strings {

inline void AppendPieces(std::ostringstream&) {}

template <typename T, typename... Rest>
void AppendPieces(std::ostringstream& out, const T& first,
                  const Rest&... rest) {
  out << first;
  AppendPieces(out, rest...);
}

}  // namespace internal_strings

// Concatenates the string representations of the arguments.
// StrCat(1, "+", 2) == "1+2".
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream out;
  internal_strings::AppendPieces(out, args...);
  return out.str();
}

// Joins the elements of `parts` with `separator` between them. Elements are
// rendered with operator<<.
template <typename Container>
std::string StrJoin(const Container& parts, std::string_view separator) {
  std::ostringstream out;
  bool first = true;
  for (const auto& part : parts) {
    if (!first) out << separator;
    first = false;
    out << part;
  }
  return out.str();
}

// Splits `text` at every occurrence of `delimiter`. Does not collapse empty
// pieces: Split("a,,b", ',') == {"a", "", "b"}.
std::vector<std::string> StrSplit(std::string_view text, char delimiter);

// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

// Parses the whole of `text` as a base-10 integer in [min, max]. An empty
// string, any character outside the number (whitespace included) and an
// out-of-range value are InvalidArgument errors naming the text and the
// range. Command-line front ends use it so that a malformed count can
// neither turn into 0 nor ask for an unbounded number of threads.
StatusOr<int64_t> ParseInt64InRange(std::string_view text, int64_t min,
                                    int64_t max);

}  // namespace pdx

#endif  // PDX_BASE_STRING_UTIL_H_
