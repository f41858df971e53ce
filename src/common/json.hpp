// The repo's one JSON reader and writer. The tuning cache and the Perfetto
// trace validator parse through here; each keeps its own schema mapping
// and error codes on top.
//
// Reader: never throws on malformed input, returning false with a
// one-line "<what> at byte N". Numbers are doubles; a number token (a run
// of [0-9+-.eE]) must parse completely and must not overflow. Strings
// decode the standard escapes, \uXXXX as UTF-8 (surrogates rejected).
// Containers nest at most kMaxDepth deep, so no input exhausts the stack.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cake {
namespace json {

/// Deepest container nesting parse() accepts; one level more is an error.
inline constexpr int kMaxDepth = 32;

/// One parsed JSON value. Only the member matching `kind` is meaningful.
struct Value {
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;  ///< document order

    /// Object member `key` (the first, if repeated); nullptr when absent or
    /// when this value is not an object.
    [[nodiscard]] const Value* find(std::string_view key) const;

    /// find(key), but nullptr as well when the member is not of kind `want`.
    [[nodiscard]] const Value* find(std::string_view key, Kind want) const;
};

/// Parse `text` as exactly one JSON value, with optional surrounding
/// whitespace. On failure returns false and, when `error` is non-null,
/// sets it to "<what> at byte N"; `out` is then unspecified.
[[nodiscard]] bool parse(std::string_view text, Value& out,
                         std::string* error = nullptr);

/// `s` as the body of a JSON string (no quotes): `"`, `\`, newline and tab
/// get their short escapes, every other byte below 0x20 becomes \u00xx,
/// and all other bytes pass through unchanged.
[[nodiscard]] std::string escape(std::string_view s);

/// escape(s) wrapped in double quotes.
[[nodiscard]] std::string quote(std::string_view s);

/// `v` printed with %.17g: enough digits that parse() returns the
/// identical double.
[[nodiscard]] std::string number(double v);

/// Serialise `v` on one line: ", " between elements, ": " after keys,
/// strings through quote() and numbers through number().
void write(const Value& v, std::ostream& os);

}  // namespace json
}  // namespace cake
