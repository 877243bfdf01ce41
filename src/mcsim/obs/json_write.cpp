#include "mcsim/obs/json_write.hpp"

#include <cstdio>
#include <ostream>

namespace mcsim::obs {

std::ostream& operator<<(std::ostream& os, JsonNumber number) {
  char buf[32];
  const int len = std::snprintf(buf, sizeof buf, "%.12g", number.value);
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
