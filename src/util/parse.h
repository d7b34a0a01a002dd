// Strict parsing of numeric command-line values: dxplore's flags, and
// dxplorectl's flags and KEY=VALUE arguments. std::atoi / strtod return 0 or
// a parsed prefix on garbage, so a typo like `--step 0.O1` or `seeds=12abc`
// would run with a silently wrong value. Here the whole text must parse (no
// trailing junk, no sign on an unsigned type), fit the type, and — for
// floating-point types — be finite.
#ifndef DX_SRC_UTIL_PARSE_H_
#define DX_SRC_UTIL_PARSE_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace dx {

// Parses `text`, the value given for `name` (a flag or a key). Throws
// std::invalid_argument naming both otherwise:
//   invalid value for --seeds: "5x" (expected a 32-bit integer)
template <typename T>
T ParseNumber(const std::string& name, const std::string& text) {
  T out{};
  const char* end = text.data() + text.size();
  std::from_chars_result parsed;
  if constexpr (std::is_floating_point_v<T>) {
    parsed = std::from_chars(text.data(), end, out);
  } else {
    parsed = std::from_chars(text.data(), end, out, 10);
  }
  bool ok = parsed.ec == std::errc{} && parsed.ptr == end;
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(out);
  }
  if (!ok) {
    const char* expected = std::is_floating_point_v<T> ? "a finite number"
                           : std::is_unsigned_v<T>     ? "an unsigned integer"
                           : sizeof(T) < 8             ? "a 32-bit integer"
                                                       : "an integer";
    throw std::invalid_argument("invalid value for " + name + ": \"" + text +
                                "\" (expected " + expected + ")");
  }
  return out;
}

}  // namespace dx

#endif  // DX_SRC_UTIL_PARSE_H_
