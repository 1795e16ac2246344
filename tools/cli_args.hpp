#pragma once
// Flag-value parsing shared by the deepsim and deepsimd command lines.

#include <charconv>
#include <cstring>

namespace deep::tools {

/// Parses `text` as a whole decimal integer that fits `out`; false, with
/// `out` untouched, on a null `text`, trailing characters or overflow.
template <typename Int>
bool parse_int(const char* text, Int& out) {
  if (text == nullptr) return false;
  const char* end = text + std::strlen(text);
  const auto [stop, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && stop == end;
}

}  // namespace deep::tools
