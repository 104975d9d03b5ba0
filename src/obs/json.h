#ifndef MDE_OBS_JSON_H_
#define MDE_OBS_JSON_H_

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

}  // namespace mde::obs

#endif  // MDE_OBS_JSON_H_
