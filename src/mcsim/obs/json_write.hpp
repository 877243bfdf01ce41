// The JSON scalar writers shared by every JSON producer in mcsim: the JSONL
// event log, the Perfetto trace, report.json, `mcsim explain --json` and
// the util/json codec behind `mcsim serve`.  One definition keeps their
// bytes in agreement.  They live in obs, the lowest layer, so every other
// module may use them.
//
//   os << "{\"t\":" << JsonNumber{t} << ",\"name\":" << JsonString{name};
//
// Both stream straight into the ostream; neither allocates.
#pragma once

#include <iosfwd>
#include <string_view>

namespace mcsim::obs {

/// 2^53: every integer of at most this magnitude is exact as a double, so
/// it is the largest integer a JSON number carries intact.
inline constexpr double kMaxJsonInteger = 9007199254740992.0;

/// A number as "%.12g": sub-microsecond resolution on day-long runs while
/// staying compact, and integral values without a decimal point.  An
/// integral value of magnitude at most kMaxJsonInteger that "%.12g" would
/// round is written in full, so seeds and counts of 10^12 or more arrive
/// intact; text written here parses to a value that writes the same text.
struct JsonNumber {
  double value;
};

/// A string, quoted, with `"`, `\`, newline and tab escaped by backslash and
/// every other control character as \u00XX.  Other bytes pass unchanged.
struct JsonString {
  std::string_view value;
};

std::ostream& operator<<(std::ostream& os, JsonNumber number);
std::ostream& operator<<(std::ostream& os, JsonString string);

}  // namespace mcsim::obs
