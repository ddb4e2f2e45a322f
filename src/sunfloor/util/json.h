// Minimal strict JSON document parser: the reader for the service and
// shard wire protocols, and the one check the tests run over traces,
// metrics snapshots and lint reports.
//
// Numbers follow the JSON grammar ("+1", "1." and "01" are rejected) and
// must be *finite* ("1e999" is rejected, inf/nan are not JSON at all),
// so leniency cannot let bad input through the way the spec parser once
// did. Object keys must be unique, nesting is bounded at 64 levels, and
// every parse error names the byte offset of the problem. Text inside
// strings is passed through verbatim (UTF-8 agnostic) with the standard
// escapes decoded.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sunfloor {

class JsonValue {
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;

    Type type() const { return type_; }
    bool is_object() const { return type_ == Type::Object; }
    bool is_array() const { return type_ == Type::Array; }
    bool is_string() const { return type_ == Type::String; }
    bool is_number() const { return type_ == Type::Number; }
    bool is_bool() const { return type_ == Type::Bool; }
    bool is_null() const { return type_ == Type::Null; }

    /// True for a Number whose lexeme was integral and fits a long long.
    bool is_integer() const { return type_ == Type::Number && integral_; }

    bool as_bool() const { return bool_; }
    double as_double() const { return num_; }
    long long as_int64() const { return inum_; }
    const std::string& as_string() const { return str_; }

    const std::vector<JsonValue>& items() const { return arr_; }
    const std::vector<std::pair<std::string, JsonValue>>& members() const {
        return obj_;
    }

    /// Object member lookup; nullptr when absent (or not an object).
    const JsonValue* find(std::string_view key) const;

  private:
    friend class JsonParser;
    Type type_ = Type::Null;
    bool bool_ = false;
    bool integral_ = false;
    double num_ = 0.0;
    long long inum_ = 0;
    std::string str_;
    std::vector<JsonValue> arr_;
    std::vector<std::pair<std::string, JsonValue>> obj_;
};

struct JsonParseResult {
    bool ok = false;
    JsonValue value;
    /// On failure: what went wrong and at which byte offset.
    std::string error;
};

/// Parse one complete JSON document (trailing garbage is an error).
JsonParseResult parse_json(std::string_view text);

}  // namespace sunfloor
