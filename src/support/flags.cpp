#include "support/flags.hpp"

#include <cstdio>

#include "support/strings.hpp"

namespace fpmix::flags {

Parser text(std::string* out) {
  return [out](const char*, const char* value) {
    *out = value;
    return true;
  };
}

bool parse_integer(const char* flag, const char* value, std::uint64_t lo,
                   std::uint64_t hi, std::uint64_t* out) {
  if (parse_u64(value, out) && *out >= lo && *out <= hi) return true;
  std::fprintf(stderr, "bad %s value '%s'", flag, value);
  if (hi != std::numeric_limits<std::uint64_t>::max()) {
    std::fprintf(stderr, " (expected %llu..%llu)",
                 static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
  } else if (lo > 0) {
    std::fprintf(stderr, " (expected >= %llu)",
                 static_cast<unsigned long long>(lo));
  }
  std::fprintf(stderr, "\n");
  return false;
}

bool parse(int argc, char** argv, int first, const Table& values,
           const std::function<bool(const std::string& arg)>& other) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto flag = values.find(arg);
    if (flag == values.end()) {
      if (other(arg)) continue;
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return false;
    }
    if (i + 1 == argc) {
      std::fprintf(stderr, "%s needs a value\n", arg.c_str());
      return false;
    }
    if (!flag->second(arg.c_str(), argv[++i])) return false;
  }
  return true;
}

}  // namespace fpmix::flags
