#include "common/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace cake {
namespace json {
namespace {

/// Recursive-descent parser state over one document; every failure sets
/// `error` once and unwinds by returning false.
struct Parser {
    std::string_view text;
    std::size_t pos = 0;
    std::string error;

    bool fail(const char* what)
    {
        error = std::string(what) + " at byte " + std::to_string(pos);
        return false;
    }

    void skip_ws()
    {
        while (pos < text.size()
               && std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
            ++pos;
        }
    }

    bool consume(char ch)
    {
        if (pos >= text.size() || text[pos] != ch) return false;
        ++pos;
        return true;
    }

    /// `depth` counts the containers already open around this value.
    bool parse_value(Value& out, int depth)
    {
        skip_ws();
        if (pos >= text.size()) return fail("unexpected end of input");
        switch (text[pos]) {
            case '{':
            case '[':
                if (depth >= kMaxDepth) return fail("nesting too deep");
                return parse_container(out, depth + 1);
            case '"':
                out.kind = Value::Kind::kString;
                return parse_string(out.string);
            case 't': return parse_keyword(out, "true", Value::Kind::kBool);
            case 'f': return parse_keyword(out, "false", Value::Kind::kBool);
            case 'n': return parse_keyword(out, "null", Value::Kind::kNull);
            default: return parse_number(out);
        }
    }

    /// An object or array; `pos` is on its opening bracket.
    bool parse_container(Value& out, int depth)
    {
        const bool is_object = text[pos++] == '{';
        const char close = is_object ? '}' : ']';
        out.kind = is_object ? Value::Kind::kObject : Value::Kind::kArray;
        skip_ws();
        if (consume(close)) return true;
        for (;;) {
            std::string key;
            if (is_object) {
                skip_ws();
                if (pos >= text.size() || text[pos] != '"') {
                    return fail("expected object key string");
                }
                if (!parse_string(key)) return false;
                skip_ws();
                if (!consume(':')) return fail("expected ':'");
            }
            Value value;
            if (!parse_value(value, depth)) return false;
            if (is_object) {
                out.object.emplace_back(std::move(key), std::move(value));
            } else {
                out.array.push_back(std::move(value));
            }
            skip_ws();
            if (consume(',')) continue;
            if (consume(close)) return true;
            return fail(is_object ? "expected ',' or '}'"
                                  : "expected ',' or ']'");
        }
    }

    bool parse_string(std::string& out)
    {
        ++pos;  // opening quote
        out.clear();
        while (pos < text.size()) {
            const char ch = text[pos++];
            if (ch == '"') return true;
            if (ch != '\\') {
                out += ch;
                continue;
            }
            if (pos >= text.size()) break;
            switch (text[pos++]) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u':
                    if (!parse_unicode(out)) return false;
                    break;
                default: return fail("bad string escape");
            }
        }
        return fail("unterminated string");
    }

    /// The XXXX of a \uXXXX escape, appended to `out` as UTF-8.
    bool parse_unicode(std::string& out)
    {
        const char* hex = text.data() + pos;
        const char* last = hex + std::min<std::size_t>(4, text.size() - pos);
        unsigned cp = 0;
        const auto [end, ec] = std::from_chars(hex, last, cp, 16);
        const bool surrogate = cp >= 0xD800 && cp <= 0xDFFF;
        if (ec != std::errc() || end != hex + 4 || surrogate) {
            return fail("bad \\u escape");
        }
        pos += 4;
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
        return true;
    }

    bool parse_keyword(Value& out, std::string_view word, Value::Kind kind)
    {
        if (text.substr(pos, word.size()) != word) {
            return fail("unknown keyword");
        }
        pos += word.size();
        out.kind = kind;
        out.boolean = word == "true";
        return true;
    }

    /// A run of number characters that strtod must consume completely.
    bool parse_number(Value& out)
    {
        constexpr std::string_view kNumberChars = "0123456789+-.eE";
        const std::size_t start = pos;
        while (pos < text.size()
               && kNumberChars.find(text[pos]) != std::string_view::npos) {
            ++pos;
        }
        if (pos == start) return fail("expected a value");
        const std::string token(text.substr(start, pos - start));
        char* end = nullptr;
        out.number = std::strtod(token.c_str(), &end);
        pos = start;  // a bad token is reported at its first byte
        if (end != token.c_str() + token.size()) {
            return fail("malformed number");
        }
        if (std::isinf(out.number)) return fail("number out of range");
        pos += token.size();
        out.kind = Value::Kind::kNumber;
        return true;
    }
};

}  // namespace

const Value* Value::find(std::string_view key) const
{
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : object) {
        if (k == key) return &v;
    }
    return nullptr;
}

const Value* Value::find(std::string_view key, Kind want) const
{
    const Value* v = find(key);
    return v != nullptr && v->kind == want ? v : nullptr;
}

bool parse(std::string_view text, Value& out, std::string* error)
{
    Parser parser{text, 0, {}};
    if (parser.parse_value(out, 0)) {
        parser.skip_ws();
        if (parser.pos == text.size()) return true;
        parser.fail("trailing bytes after value");
    }
    if (error != nullptr) *error = parser.error;
    return false;
}

std::string escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(c));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string quote(std::string_view s)
{
    return '"' + escape(s) + '"';
}

std::string number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void write(const Value& v, std::ostream& os)
{
    switch (v.kind) {
        case Value::Kind::kNull: os << "null"; break;
        case Value::Kind::kBool: os << (v.boolean ? "true" : "false"); break;
        case Value::Kind::kNumber: os << number(v.number); break;
        case Value::Kind::kString: os << quote(v.string); break;
        case Value::Kind::kArray:
            os << '[';
            for (std::size_t i = 0; i < v.array.size(); ++i) {
                if (i != 0) os << ", ";
                write(v.array[i], os);
            }
            os << ']';
            break;
        case Value::Kind::kObject:
            os << '{';
            for (std::size_t i = 0; i < v.object.size(); ++i) {
                if (i != 0) os << ", ";
                os << quote(v.object[i].first) << ": ";
                write(v.object[i].second, os);
            }
            os << '}';
            break;
    }
}

}  // namespace json
}  // namespace cake
