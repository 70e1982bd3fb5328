// Minimal JSON value type with an exact-round-trip writer and a strict
// recursive-descent parser.
//
// Written for the sweep/shard manifests: documents are machine-generated,
// small, and must round-trip bit-exactly (doubles are emitted with 17
// significant digits, which strtod parses back to the identical bits).
// Objects preserve insertion order, so a given value always dumps to the
// same text.  No external dependency, no DOM tricks - just enough JSON.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace matador::util {

class Json {
public:
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

    Json() = default;
    Json(std::nullptr_t) {}
    Json(bool b) : type_(Type::kBool), bool_(b) {}
    Json(double v) : type_(Type::kNumber), num_(v) {}
    Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}
    Json(const char* s) : type_(Type::kString), str_(s) {}

    static Json array() { Json j; j.type_ = Type::kArray; return j; }
    static Json object() { Json j; j.type_ = Type::kObject; return j; }

    Type type() const { return type_; }
    bool is_null() const { return type_ == Type::kNull; }
    bool is_bool() const { return type_ == Type::kBool; }
    bool is_number() const { return type_ == Type::kNumber; }
    bool is_string() const { return type_ == Type::kString; }
    bool is_array() const { return type_ == Type::kArray; }
    bool is_object() const { return type_ == Type::kObject; }

    /// Typed accessors; throw std::runtime_error on a type mismatch.
    bool as_bool() const;
    double as_double() const;
    /// A count read from a document: a finite whole number in [0, max].
    /// The default max, 2^53, is the range a double holds exactly.
    /// Anything else throws std::runtime_error rather than reaching a bare
    /// integer cast.
    std::size_t as_count(std::size_t max = std::size_t(1) << 53) const;
    const std::string& as_string() const;
    const std::vector<Json>& as_array() const;
    const std::vector<std::pair<std::string, Json>>& as_object() const;

    // -- array building / access ------------------------------------------
    /// Append to an array (null values become arrays on first push).
    void push_back(Json v);
    std::size_t size() const;

    // -- object building / access -----------------------------------------
    /// Insert or overwrite a key (null values become objects on first set).
    void set(const std::string& key, Json v);
    bool contains(const std::string& key) const;
    /// Member lookup; throws std::runtime_error naming the missing key.
    const Json& at(const std::string& key) const;

    // -- text <-> value ----------------------------------------------------
    /// Serialize.  indent < 0: compact one-liner; indent >= 0: pretty-print
    /// with that many spaces per level.  Doubles round-trip exactly; NaN and
    /// infinities (not representable in JSON) are emitted as the strings
    /// "nan", "inf", "-inf".
    std::string dump(int indent = -1) const;

    /// Strict parse of one JSON document (trailing garbage is an error).
    /// Throws std::runtime_error with an offset on malformed input,
    /// including objects and arrays nested more than 512 deep.
    static Json parse(const std::string& text);

private:
    void dump_to(std::string& out, int indent, int depth) const;

    Type type_ = Type::kNull;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace matador::util
