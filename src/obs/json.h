#ifndef MDE_OBS_JSON_H_
#define MDE_OBS_JSON_H_

#include <cmath>
#include <cstdio>
#include <string_view>

namespace mde::obs {

/// The JSON string escape every obs writer uses (span, thread and metric
/// names, tags, dump reasons): '"' and '\\' get a backslash and control
/// bytes become a space. It emits only through `put(char)`, so it is
/// async-signal-safe whenever `put` is — the crash dump's signal path
/// escapes into a fixed stack buffer with it.
template <typename Put>
void JsonEscape(std::string_view s, Put&& put) {
  for (const char c : s) {
    if (c == '"' || c == '\\') put('\\');
    put(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
}

/// Writes an object member's key, `"key":`, after a comma unless `*first`
/// (which it clears).
template <typename Put>
void JsonKey(std::string_view key, bool* first, Put&& put) {
  if (!*first) put(',');
  *first = false;
  put('"');
  JsonEscape(key, put);
  put('"');
  put(':');
}

/// The JSON number every obs writer uses for a double: %.17g, enough
/// digits that parsing the text recovers the exact value, and `null` for
/// NaN and the infinities, which JSON cannot spell. Emits through
/// `put(char)` like JsonEscape, but it calls snprintf, so the signal-path
/// dump (which writes no gauges) must not use it.
template <typename Put>
void JsonNumber(double v, Put&& put) {
  char buf[32];
  const int n = std::isfinite(v) ? std::snprintf(buf, sizeof(buf), "%.17g", v)
                                 : std::snprintf(buf, sizeof(buf), "null");
  for (int i = 0; i < n; ++i) put(buf[i]);
}

}  // namespace mde::obs

#endif  // MDE_OBS_JSON_H_
