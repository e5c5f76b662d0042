#include "base/string_util.h"

#include <cctype>
#include <charconv>

namespace pdx {

std::vector<std::string> StrSplit(std::string_view text, char delimiter) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(text.substr(start));
      return pieces;
    }
    pieces.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

StatusOr<int64_t> ParseInt64InRange(std::string_view text, int64_t min,
                                    int64_t max) {
  int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value < min ||
      value > max) {
    return InvalidArgumentError(StrCat("'", text, "' is not an integer in [",
                                       min, ", ", max, "]"));
  }
  return value;
}

}  // namespace pdx
