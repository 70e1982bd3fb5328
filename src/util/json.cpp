#include "util/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <system_error>

namespace matador::util {

namespace {

[[noreturn]] void type_error(const char* want, Json::Type got) {
    static const char* names[] = {"null", "bool", "number",
                                  "string", "array", "object"};
    throw std::runtime_error(std::string("json: expected ") + want + ", got " +
                             names[std::size_t(got)]);
}

bool needs_escape(char ch) {
    const auto c = static_cast<unsigned char>(ch);
    return c == '"' || c == '\\' || c < 0x20;
}

void dump_string(std::string& out, const std::string& s) {
    out += '"';
    std::size_t i = 0;
    while (i < s.size()) {
        // Plain runs go out in one append; only escapes go char by char.
        const std::size_t run = i;
        while (i < s.size() && !needs_escape(s[i])) ++i;
        out.append(s, run, i - run);
        if (i == s.size()) break;
        const auto c = static_cast<unsigned char>(s[i++]);
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            default: {  // any other control character
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            }
        }
    }
    out += '"';
}

void dump_number(std::string& out, double v) {
    if (std::isnan(v)) {
        out += "\"nan\"";
        return;
    }
    if (std::isinf(v)) {
        out += v > 0 ? "\"inf\"" : "\"-inf\"";
        return;
    }
    char buf[40];
    // Integral values print without an exponent or trailing ".0" (except
    // -0.0, whose sign the integer path would drop); everything else uses
    // max_digits10 so strtod recovers the exact bits.  to_chars writes
    // the same bytes as printf's "%lld" and "%.17g", without the locale
    // and format-string work.
    std::to_chars_result r;
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15 &&
        !(v == 0.0 && std::signbit(v))) {
        r = std::to_chars(buf, buf + sizeof buf, static_cast<long long>(v));
    } else {
        r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                          17);
    }
    out.append(buf, r.ptr);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class Parser {
public:
    explicit Parser(const std::string& text) : text_(text) {}

    Json parse_document() {
        Json v = parse_value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters after document");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error("json: " + what + " at offset " +
                                 std::to_string(pos_));
    }

    void skip_ws() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_keyword(const char* kw) {
        std::size_t n = 0;
        while (kw[n]) ++n;
        if (text_.compare(pos_, n, kw) != 0) return false;
        pos_ += n;
        return true;
    }

    void append_utf8(std::string& out, unsigned cp) {
        if (cp < 0x80) {
            out += char(cp);
        } else if (cp < 0x800) {
            out += char(0xC0 | (cp >> 6));
            out += char(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += char(0xE0 | (cp >> 12));
            out += char(0x80 | ((cp >> 6) & 0x3F));
            out += char(0x80 | (cp & 0x3F));
        } else {
            out += char(0xF0 | (cp >> 18));
            out += char(0x80 | ((cp >> 12) & 0x3F));
            out += char(0x80 | ((cp >> 6) & 0x3F));
            out += char(0x80 | (cp & 0x3F));
        }
    }

    unsigned parse_hex4() {
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = peek();
            ++pos_;
            v <<= 4;
            if (c >= '0' && c <= '9') v |= unsigned(c - '0');
            else if (c >= 'a' && c <= 'f') v |= unsigned(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F') v |= unsigned(c - 'A' + 10);
            else fail("bad \\u escape digit");
        }
        return v;
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            // Copy the run up to the next quote, escape or control
            // character in one append.
            const std::size_t run = pos_;
            while (pos_ < text_.size() && !needs_escape(text_[pos_])) ++pos_;
            out.append(text_, run, pos_ - run);
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') fail("unescaped control character in string");
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': {
                    unsigned cp = parse_hex4();
                    if (cp >= 0xD800 && cp <= 0xDBFF) {
                        // UTF-16 surrogate pair.
                        if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                            text_[pos_ + 1] != 'u')
                            fail("lone high surrogate");
                        pos_ += 2;
                        const unsigned lo = parse_hex4();
                        if (lo < 0xDC00 || lo > 0xDFFF)
                            fail("bad low surrogate");
                        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                    }
                    append_utf8(out, cp);
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    Json parse_number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                text_[pos_] == '+' || text_[pos_] == '-'))
            ++pos_;
        // from_chars reads the token in place and rounds exactly like
        // strtod.  It leaves out-of-range values to the caller; strtod's
        // answer there (+-inf, or 0 and subnormals) is the one kept.
        const char* const first = text_.data() + start;
        const char* const last = text_.data() + pos_;
        double v = 0.0;
        const auto [end, ec] = std::from_chars(first, last, v);
        if (ec == std::errc::result_out_of_range && end == last)
            v = std::strtod(std::string(first, last).c_str(), nullptr);
        else if (ec != std::errc() || end != last)
            fail("malformed number '" + std::string(first, last) + "'");
        return Json(v);
    }

    Json parse_object() {
        ++pos_;
        Json obj = Json::object();
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            obj.set(key, parse_value());
            skip_ws();
            const char sep = peek();
            ++pos_;
            if (sep == '}') return obj;
            if (sep != ',') fail("expected ',' or '}' in object");
        }
    }

    Json parse_array() {
        ++pos_;
        Json arr = Json::array();
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push_back(parse_value());
            skip_ws();
            const char sep = peek();
            ++pos_;
            if (sep == ']') return arr;
            if (sep != ',') fail("expected ',' or ']' in array");
        }
    }

    Json parse_value() {
        skip_ws();
        const char c = peek();
        if (c == '{' || c == '[') {
            // Each level is a stack frame; an untrusted line must not be
            // able to nest its way to a stack overflow.
            if (depth_ == kMaxDepth)
                fail("nesting deeper than " + std::to_string(kMaxDepth) +
                     " levels");
            ++depth_;
            Json v = c == '{' ? parse_object() : parse_array();
            --depth_;
            return v;
        }
        if (c == '"') return Json(parse_string());
        if (c == 't') {
            if (!consume_keyword("true")) fail("bad keyword");
            return Json(true);
        }
        if (c == 'f') {
            if (!consume_keyword("false")) fail("bad keyword");
            return Json(false);
        }
        if (c == 'n') {
            if (!consume_keyword("null")) fail("bad keyword");
            return Json(nullptr);
        }
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
            return parse_number();
        fail("unexpected character");
    }

    static constexpr std::size_t kMaxDepth = 512;

    const std::string& text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;  ///< objects and arrays open around pos_
};

}  // namespace

bool Json::as_bool() const {
    if (type_ != Type::kBool) type_error("bool", type_);
    return bool_;
}

double Json::as_double() const {
    if (type_ != Type::kNumber) type_error("number", type_);
    return num_;
}

std::size_t Json::as_count(std::size_t max) const {
    const double v = as_double();
    // Whole doubles up to 2^53 are exact, so the compare and cast are too.
    max = std::min(max, std::size_t(1) << 53);
    if (!(v >= 0.0 && v <= double(max)) || v != std::floor(v)) {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "json: expected a whole count in [0, %zu], got %.17g",
                      max, v);
        throw std::runtime_error(buf);
    }
    return std::size_t(v);
}

const std::string& Json::as_string() const {
    if (type_ != Type::kString) type_error("string", type_);
    return str_;
}

const std::vector<Json>& Json::as_array() const {
    if (type_ != Type::kArray) type_error("array", type_);
    return arr_;
}

const std::vector<std::pair<std::string, Json>>& Json::as_object() const {
    if (type_ != Type::kObject) type_error("object", type_);
    return obj_;
}

void Json::push_back(Json v) {
    if (type_ == Type::kNull) type_ = Type::kArray;
    if (type_ != Type::kArray) type_error("array", type_);
    arr_.push_back(std::move(v));
}

std::size_t Json::size() const {
    if (type_ == Type::kArray) return arr_.size();
    if (type_ == Type::kObject) return obj_.size();
    type_error("array or object", type_);
}

void Json::set(const std::string& key, Json v) {
    if (type_ == Type::kNull) type_ = Type::kObject;
    if (type_ != Type::kObject) type_error("object", type_);
    for (auto& [k, existing] : obj_) {
        if (k == key) {
            existing = std::move(v);
            return;
        }
    }
    obj_.emplace_back(key, std::move(v));
}

bool Json::contains(const std::string& key) const {
    if (type_ != Type::kObject) return false;
    for (const auto& [k, v] : obj_)
        if (k == key) return true;
    return false;
}

const Json& Json::at(const std::string& key) const {
    if (type_ != Type::kObject) type_error("object", type_);
    for (const auto& [k, v] : obj_)
        if (k == key) return v;
    throw std::runtime_error("json: missing key '" + key + "'");
}

void Json::dump_to(std::string& out, int indent, int depth) const {
    const auto newline = [&](int d) {
        if (indent < 0) return;
        out += '\n';
        out.append(std::size_t(indent) * std::size_t(d), ' ');
    };
    switch (type_) {
        case Type::kNull: out += "null"; break;
        case Type::kBool: out += bool_ ? "true" : "false"; break;
        case Type::kNumber: dump_number(out, num_); break;
        case Type::kString: dump_string(out, str_); break;
        case Type::kArray: {
            out += '[';
            for (std::size_t i = 0; i < arr_.size(); ++i) {
                if (i) out += ',';
                newline(depth + 1);
                arr_[i].dump_to(out, indent, depth + 1);
            }
            if (!arr_.empty()) newline(depth);
            out += ']';
            break;
        }
        case Type::kObject: {
            out += '{';
            for (std::size_t i = 0; i < obj_.size(); ++i) {
                if (i) out += ',';
                newline(depth + 1);
                dump_string(out, obj_[i].first);
                out += indent < 0 ? ":" : ": ";
                obj_[i].second.dump_to(out, indent, depth + 1);
            }
            if (!obj_.empty()) newline(depth);
            out += '}';
            break;
        }
    }
}

std::string Json::dump(int indent) const {
    std::string out;
    dump_to(out, indent, 0);
    return out;
}

Json Json::parse(const std::string& text) {
    return Parser(text).parse_document();
}

}  // namespace matador::util
