// The numeric flag parser of the command-line tools (convoy_cli,
// convoy_serverd, convoy_loadgen) and of the bench binaries
// (bench/bench_common.h).

#ifndef CONVOY_TOOLS_PARSE_NUMBER_H_
#define CONVOY_TOOLS_PARSE_NUMBER_H_

#include <charconv>
#include <iostream>
#include <string_view>
#include <system_error>

// Parses a numeric flag's whole value as T with std::from_chars. A value
// with trailing characters ("3x", "8,5"), a sign on an unsigned flag, or a
// value outside T (a port above 65535) is rejected with a message naming
// the flag; range checks such as m >= 2 stay with the caller.
template <typename T>
bool ParseNumber(std::string_view flag, std::string_view value, T* out) {
  const char* const end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, *out);
  if (value.empty() || ec != std::errc() || ptr != end) {
    std::cerr << "malformed value for " << flag << ": '" << value << "'\n";
    return false;
  }
  return true;
}

#endif  // CONVOY_TOOLS_PARSE_NUMBER_H_
