// Table-driven command-line flags for the example CLIs. Every flag that
// takes a value is declared together with its parser, so an unknown flag, a
// value flag given last and a malformed value are all usage errors -- never
// silently ignored.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>

namespace fpmix::flags {

/// Parses one flag's value into its target. Prints the usage error and
/// returns false when the value is bad.
using Parser = std::function<bool(const char* flag, const char* value)>;
using Table = std::map<std::string, Parser>;

/// Any value, copied verbatim.
Parser text(std::string* out);

/// Parses an integer within [lo, hi]; prints the usage error otherwise.
bool parse_integer(const char* flag, const char* value, std::uint64_t lo,
                   std::uint64_t hi, std::uint64_t* out);

/// An integer within [lo, hi], stored as T.
template <typename T>
Parser integer(T* out, std::uint64_t lo = 0,
               std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) {
  return [out, lo, hi](const char* flag, const char* value) {
    std::uint64_t n = 0;
    if (!parse_integer(flag, value, lo, hi, &n)) return false;
    *out = static_cast<T>(n);
    return true;
  };
}

/// Parses argv[first, argc): flags in `values` consume the next argument;
/// every other argument goes to `other`, which returns false when it does
/// not know it. Prints the usage error and returns false at the first bad
/// argument.
bool parse(int argc, char** argv, int first, const Table& values,
           const std::function<bool(const std::string& arg)>& other);

}  // namespace fpmix::flags
