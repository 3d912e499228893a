#include "support/strings.hpp"

#include <cstdarg>
#include <cstdint>
#include <cstdio>

namespace fpmix {

std::string strformat(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

std::string_view trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' ||
                          s[b] == '\n')) {
    ++b;
  }
  size_t e = s.size();
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
                   s[e - 1] == '\n')) {
    --e;
  }
  return s.substr(b, e - b);
}

std::vector<std::string_view> split_fields(std::string_view s,
                                           std::string_view seps) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && seps.find(s[i]) != std::string_view::npos) ++i;
    size_t j = i;
    while (j < s.size() && seps.find(s[j]) == std::string_view::npos) ++j;
    if (j > i) out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::vector<std::string_view> split_lines(std::string_view s) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i <= s.size()) {
    size_t j = s.find('\n', i);
    if (j == std::string_view::npos) {
      if (i < s.size()) out.push_back(s.substr(i));
      break;
    }
    out.push_back(s.substr(i, j - i));
    i = j + 1;
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool parse_u64(std::string_view s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return false;  // would wrap
    v = v * 10 + d;
  }
  *out = v;
  return true;
}

bool parse_hex_u64(std::string_view s, std::uint64_t* out) {
  if (starts_with(s, "0x") || starts_with(s, "0X")) s.remove_prefix(2);
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    std::uint64_t d;
    if (c >= '0' && c <= '9') d = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') d = static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') d = static_cast<std::uint64_t>(c - 'A' + 10);
    else return false;
    if (v >> 60 != 0) return false;  // would wrap
    v = (v << 4) | d;
  }
  *out = v;
  return true;
}

}  // namespace fpmix
