#include "mcsim/obs/json_write.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace mcsim::obs {

std::ostream& operator<<(std::ostream& os, JsonNumber number) {
  const double v = number.value;
  char buf[32];
  int len = std::snprintf(buf, sizeof buf, "%.12g", v);
  // Up to 2^53, an integer that "%.12g" would round is written in full.  One
  // it writes exactly keeps that text, so a large fraction rounded to an
  // integer by "%.12g" prints the same text again after a parse.
  if (std::fabs(v) >= 1e12 && std::fabs(v) <= kMaxJsonInteger &&
      std::trunc(v) == v && std::strtod(buf, nullptr) != v)
    len = std::snprintf(buf, sizeof buf, "%.0f", v);
  return os.write(buf, len);
}

std::ostream& operator<<(std::ostream& os, JsonString string) {
  os << '"';
  for (const char c : string.value) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  return os << '"';
}

}  // namespace mcsim::obs
