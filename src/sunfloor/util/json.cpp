#include "sunfloor/util/json.h"

#include "sunfloor/util/strings.h"

namespace sunfloor {

const JsonValue* JsonValue::find(std::string_view key) const {
    if (type_ != Type::Object) return nullptr;
    for (const auto& [k, v] : obj_)
        if (k == key) return &v;
    return nullptr;
}

class JsonParser {
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    JsonParseResult run() {
        JsonParseResult out;
        skip_ws();
        if (!parse_value(out.value, 0)) {
            out.error = error_;
            return out;
        }
        skip_ws();
        if (pos_ != text_.size()) {
            out.error = fail("trailing characters after JSON document");
            return out;
        }
        out.ok = true;
        return out;
    }

  private:
    static constexpr int kMaxDepth = 64;

    std::string fail(const std::string& what) {
        if (error_.empty())
            error_ = format("%s at byte %zu", what.c_str(), pos_);
        return error_;
    }

    void skip_ws() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    bool parse_value(JsonValue& out, int depth) {
        if (depth > kMaxDepth) {
            fail("nesting deeper than 64 levels");
            return false;
        }
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return false;
        }
        const char c = text_[pos_];
        switch (c) {
            case '{':
                return parse_object(out, depth);
            case '[':
                return parse_array(out, depth);
            case '"':
                out.type_ = JsonValue::Type::String;
                return parse_string(out.str_);
            case 't':
                return parse_literal("true", out, JsonValue::Type::Bool,
                                     true);
            case 'f':
                return parse_literal("false", out, JsonValue::Type::Bool,
                                     false);
            case 'n':
                return parse_literal("null", out, JsonValue::Type::Null,
                                     false);
            default:
                return parse_number(out);
        }
    }

    bool parse_literal(std::string_view word, JsonValue& out,
                       JsonValue::Type type, bool b) {
        if (text_.substr(pos_, word.size()) != word) {
            fail("invalid literal");
            return false;
        }
        pos_ += word.size();
        out.type_ = type;
        out.bool_ = b;
        return true;
    }

    /// Consume the digits at the cursor; returns how many.
    std::size_t skip_digits() {
        const std::size_t from = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
            ++pos_;
        return pos_ - from;
    }

    bool parse_number(JsonValue& out) {
        // The JSON grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
        const std::size_t int_at = pos_;
        const std::size_t int_digits = skip_digits();
        bool ok = int_digits == 1 || (int_digits > 1 && text_[int_at] != '0');
        bool integral = true;
        if (ok && pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            integral = false;
            ok = skip_digits() > 0;
        }
        if (ok && pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            integral = false;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            ok = skip_digits() > 0;
        }
        const std::string_view lexeme = text_.substr(start, pos_ - start);
        double d = 0.0;
        // parse_double is finite-only: "1e999" (overflow to inf) fails
        // here rather than poisoning a knob.
        if (!ok || !parse_double(lexeme, d)) {
            pos_ = start;
            fail("malformed or non-finite number");
            return false;
        }
        out.type_ = JsonValue::Type::Number;
        out.num_ = d;
        long long ll = 0;
        if (integral && parse_int64(lexeme, ll)) {
            out.integral_ = true;
            out.inum_ = ll;
        }
        return true;
    }

    bool parse_string(std::string& out) {
        ++pos_;  // opening quote
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("unescaped control character in string");
                return false;
            }
            if (c != '\\') {
                out.push_back(c);
                ++pos_;
                continue;
            }
            if (pos_ + 1 >= text_.size()) break;
            const char esc = text_[pos_ + 1];
            pos_ += 2;
            switch (esc) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    if (!parse_unicode_escape(out)) return false;
                    break;
                }
                default:
                    pos_ -= 2;
                    fail("invalid string escape");
                    return false;
            }
        }
        fail("unterminated string");
        return false;
    }

    bool parse_unicode_escape(std::string& out) {
        if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return false;
        }
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<std::size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
            else {
                fail("invalid \\u escape");
                return false;
            }
        }
        pos_ += 4;
        // Encode the code point as UTF-8. Surrogate pairs are passed
        // through as two 3-byte sequences (frames never carry them; the
        // payload strings the protocol round-trips are ASCII-safe).
        if (code < 0x80) {
            out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        return true;
    }

    bool parse_array(JsonValue& out, int depth) {
        ++pos_;  // '['
        out.type_ = JsonValue::Type::Array;
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue item;
            skip_ws();
            if (!parse_value(item, depth + 1)) return false;
            out.arr_.push_back(std::move(item));
            skip_ws();
            if (pos_ >= text_.size()) {
                fail("unterminated array");
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            fail("expected ',' or ']' in array");
            return false;
        }
    }

    bool parse_object(JsonValue& out, int depth) {
        ++pos_;  // '{'
        out.type_ = JsonValue::Type::Object;
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skip_ws();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected object key string");
                return false;
            }
            std::string key;
            if (!parse_string(key)) return false;
            for (const auto& [k, v] : out.obj_) {
                (void)v;
                if (k == key) {
                    fail(format("duplicate object key \"%s\"", key.c_str()));
                    return false;
                }
            }
            skip_ws();
            if (pos_ >= text_.size() || text_[pos_] != ':') {
                fail("expected ':' after object key");
                return false;
            }
            ++pos_;
            skip_ws();
            JsonValue val;
            if (!parse_value(val, depth + 1)) return false;
            out.obj_.emplace_back(std::move(key), std::move(val));
            skip_ws();
            if (pos_ >= text_.size()) {
                fail("unterminated object");
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            fail("expected ',' or '}' in object");
            return false;
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::string error_;
};

JsonParseResult parse_json(std::string_view text) {
    return JsonParser(text).run();
}

}  // namespace sunfloor
