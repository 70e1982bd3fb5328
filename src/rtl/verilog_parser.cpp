#include "rtl/verilog_parser.hpp"

#include <cctype>
#include <stdexcept>
#include <unordered_map>

namespace matador::rtl {

namespace {

using logic::Aig;
using logic::Lit;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class Tok {
    kIdent, kNumber, kBitConst,  // 1'b0 / 1'b1
    kLParen, kRParen, kLBracket, kRBracket,
    kComma, kSemi, kColon, kAssignEq,
    kTilde, kAmp, kPipe, kCaret,
    kEnd,
};

struct Token {
    Tok kind;
    std::string text;  // ident text or number digits
    int line;
};

class Lexer {
public:
    explicit Lexer(const std::string& text) : s_(text) { advance(); }

    const Token& peek() const { return cur_; }
    Token next() {
        Token t = cur_;
        advance();
        return t;
    }

    [[noreturn]] void fail(const std::string& msg) const {
        throw std::runtime_error("verilog parse error (line " +
                                 std::to_string(cur_.line) + "): " + msg);
    }

private:
    void advance() {
        skip_space_and_comments();
        cur_.line = line_;
        if (pos_ >= s_.size()) {
            cur_ = {Tok::kEnd, "", line_};
            return;
        }
        const char c = s_[pos_];
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '$') {
            std::size_t b = pos_;
            while (pos_ < s_.size() &&
                   (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
                    s_[pos_] == '_' || s_[pos_] == '$'))
                ++pos_;
            cur_ = {Tok::kIdent, s_.substr(b, pos_ - b), line_};
            return;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t b = pos_;
            while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_])))
                ++pos_;
            // Sized constant? Only 1'b0 / 1'b1 appear in the subset.
            if (pos_ + 2 < s_.size() && s_[pos_] == '\'' && s_[pos_ + 1] == 'b') {
                const std::string width = s_.substr(b, pos_ - b);
                const char bit = s_[pos_ + 2];
                if (width != "1" || (bit != '0' && bit != '1'))
                    throw std::runtime_error(
                        "verilog parse error (line " + std::to_string(line_) +
                        "): only 1'b0/1'b1 constants supported");
                pos_ += 3;
                cur_ = {Tok::kBitConst, std::string(1, bit), line_};
                return;
            }
            cur_ = {Tok::kNumber, s_.substr(b, pos_ - b), line_};
            return;
        }
        ++pos_;
        switch (c) {
            case '(': cur_ = {Tok::kLParen, "(", line_}; return;
            case ')': cur_ = {Tok::kRParen, ")", line_}; return;
            case '[': cur_ = {Tok::kLBracket, "[", line_}; return;
            case ']': cur_ = {Tok::kRBracket, "]", line_}; return;
            case ',': cur_ = {Tok::kComma, ",", line_}; return;
            case ';': cur_ = {Tok::kSemi, ";", line_}; return;
            case ':': cur_ = {Tok::kColon, ":", line_}; return;
            case '=': cur_ = {Tok::kAssignEq, "=", line_}; return;
            case '~': cur_ = {Tok::kTilde, "~", line_}; return;
            case '&': cur_ = {Tok::kAmp, "&", line_}; return;
            case '|': cur_ = {Tok::kPipe, "|", line_}; return;
            case '^': cur_ = {Tok::kCaret, "^", line_}; return;
            default:
                throw std::runtime_error("verilog parse error (line " +
                                         std::to_string(line_) +
                                         "): unexpected character '" + c + "'");
        }
    }

    void skip_space_and_comments() {
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '\n') {
                ++line_;
                ++pos_;
            } else if (std::isspace(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (c == '/' && pos_ + 1 < s_.size() && s_[pos_ + 1] == '/') {
                while (pos_ < s_.size() && s_[pos_] != '\n') ++pos_;
            } else if (c == '(' && pos_ + 1 < s_.size() && s_[pos_ + 1] == '*') {
                // (* attribute *) - skip to the closing *)
                pos_ += 2;
                while (pos_ + 1 < s_.size() &&
                       !(s_[pos_] == '*' && s_[pos_ + 1] == ')')) {
                    if (s_[pos_] == '\n') ++line_;
                    ++pos_;
                }
                pos_ += 2;
            } else {
                break;
            }
        }
    }

    const std::string& s_;
    std::size_t pos_ = 0;
    int line_ = 1;
    Token cur_{Tok::kEnd, "", 1};
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct SignalInfo {
    int width = 1;
    bool is_output = false;
    std::vector<Lit> bits;  // current driver literal per bit (kInvalid until assigned)
};

constexpr Lit kUnassigned = 0xffffffffu;

class Parser {
public:
    explicit Parser(const std::string& text, bool strash) : lex_(text) {
        out_.aig = logic::Aig(strash);
    }

    ParsedModule run() {
        expect_ident("module");
        out_.name = expect(Tok::kIdent).text;
        expect(Tok::kLParen);
        parse_port_list();
        expect(Tok::kSemi);
        while (true) {
            const Token& t = lex_.peek();
            if (t.kind == Tok::kIdent && t.text == "endmodule") {
                lex_.next();
                break;
            }
            if (t.kind == Tok::kIdent && t.text == "wire") {
                parse_wire_decl();
            } else if (t.kind == Tok::kIdent && t.text == "assign") {
                parse_assign();
            } else if (t.kind == Tok::kEnd) {
                lex_.fail("missing endmodule");
            } else {
                lex_.fail("unsupported construct '" + t.text + "'");
            }
        }
        finish_outputs();
        return std::move(out_);
    }

private:
    Token expect(Tok kind) {
        if (lex_.peek().kind != kind) lex_.fail("unexpected token '" + lex_.peek().text + "'");
        return lex_.next();
    }
    void expect_ident(const std::string& word) {
        const Token t = expect(Tok::kIdent);
        if (t.text != word) lex_.fail("expected '" + word + "', got '" + t.text + "'");
    }

    /// A bit index or range bound, below kMaxBits so that a width (msb + 1)
    /// neither overflows nor asks for an absurd allocation.
    int parse_index() {
        const std::string digits = expect(Tok::kNumber).text;
        long long v = 0;
        for (const char c : digits) {
            v = v * 10 + (c - '0');
            if (v >= kMaxBits) lex_.fail("index " + digits + " too large");
        }
        return int(v);
    }

    int parse_range_or_one() {
        // "[msb:lsb]" -> width; absent -> 1.  Only lsb == 0 is supported.
        if (lex_.peek().kind != Tok::kLBracket) return 1;
        lex_.next();
        const int msb = parse_index();
        expect(Tok::kColon);
        const int lsb = parse_index();
        expect(Tok::kRBracket);
        if (lsb != 0) lex_.fail("only [msb:0] ranges supported");
        return msb + 1;
    }

    void parse_port_list() {
        while (true) {
            const Token t = expect(Tok::kIdent);
            bool is_output;
            if (t.text == "input")
                is_output = false;
            else if (t.text == "output")
                is_output = true;
            else {
                lex_.fail("expected input/output, got '" + t.text + "'");
            }
            // optional wire/reg keyword
            if (lex_.peek().kind == Tok::kIdent &&
                (lex_.peek().text == "wire" || lex_.peek().text == "reg"))
                lex_.next();
            const int width = parse_range_or_one();
            const std::string name = expect(Tok::kIdent).text;

            SignalInfo info;
            info.width = width;
            info.is_output = is_output;
            info.bits.assign(std::size_t(width), kUnassigned);
            if (!is_output) {
                for (int b = 0; b < width; ++b) {
                    info.bits[std::size_t(b)] = out_.aig.create_pi();
                    out_.input_bits.push_back(bit_name(name, width, b));
                }
            } else {
                output_order_.push_back(name);
            }
            signals_.emplace(name, std::move(info));

            if (lex_.peek().kind == Tok::kComma) {
                lex_.next();
                continue;
            }
            expect(Tok::kRParen);
            break;
        }
    }

    static std::string bit_name(const std::string& name, int width, int bit) {
        return width == 1 ? name : name + "[" + std::to_string(bit) + "]";
    }

    void parse_wire_decl() {
        lex_.next();  // 'wire'
        const int width = parse_range_or_one();
        const std::string name = expect(Tok::kIdent).text;
        expect(Tok::kSemi);
        SignalInfo info;
        info.width = width;
        info.bits.assign(std::size_t(width), kUnassigned);
        if (!signals_.emplace(name, std::move(info)).second)
            lex_.fail("duplicate declaration of '" + name + "'");
    }

    void parse_assign() {
        lex_.next();  // 'assign'
        const std::string name = expect(Tok::kIdent).text;
        auto it = signals_.find(name);
        if (it == signals_.end()) lex_.fail("assign to undeclared '" + name + "'");
        int bit = 0;
        if (lex_.peek().kind == Tok::kLBracket) {
            lex_.next();
            bit = parse_index();
            expect(Tok::kRBracket);
        } else if (it->second.width != 1) {
            lex_.fail("whole-vector assigns not supported");
        }
        expect(Tok::kAssignEq);
        const Lit rhs = parse_expr();
        expect(Tok::kSemi);
        if (bit < 0 || bit >= it->second.width) lex_.fail("bit index out of range");
        if (it->second.bits[std::size_t(bit)] != kUnassigned)
            lex_.fail("multiple drivers on '" + name + "'");
        it->second.bits[std::size_t(bit)] = rhs;
    }

    // expr := xor_expr ('|' xor_expr)*
    // xor_expr := and_expr ('^' and_expr)*
    // and_expr := unary ('&' unary)*
    // unary := '~' unary | atom
    // atom := '(' expr ')' | 1'b0 | 1'b1 | ident | ident '[' num ']'
    Lit parse_expr() {
        Lit v = parse_xor();
        while (lex_.peek().kind == Tok::kPipe) {
            lex_.next();
            v = out_.aig.create_or(v, parse_xor());
        }
        return v;
    }
    Lit parse_xor() {
        Lit v = parse_and();
        while (lex_.peek().kind == Tok::kCaret) {
            lex_.next();
            v = out_.aig.create_xor(v, parse_and());
        }
        return v;
    }
    Lit parse_and() {
        Lit v = parse_unary();
        while (lex_.peek().kind == Tok::kAmp) {
            lex_.next();
            v = out_.aig.create_and(v, parse_unary());
        }
        return v;
    }
    Lit parse_unary() {
        bool invert = false;
        while (lex_.peek().kind == Tok::kTilde) {
            lex_.next();
            invert = !invert;
        }
        const Lit v = parse_atom();
        return invert ? logic::lit_not(v) : v;
    }
    Lit parse_atom() {
        const Token t = lex_.next();
        if (t.kind == Tok::kLParen) {
            // Parentheses recurse: bound the depth, not the stack.
            if (++depth_ > kMaxNesting) lex_.fail("parentheses nested too deeply");
            const Lit v = parse_expr();
            expect(Tok::kRParen);
            --depth_;
            return v;
        }
        if (t.kind == Tok::kBitConst)
            return t.text == "1" ? logic::kConst1 : logic::kConst0;
        if (t.kind != Tok::kIdent) lex_.fail("expected operand, got '" + t.text + "'");
        auto it = signals_.find(t.text);
        if (it == signals_.end()) lex_.fail("use of undeclared '" + t.text + "'");
        int bit = 0;
        if (lex_.peek().kind == Tok::kLBracket) {
            lex_.next();
            bit = parse_index();
            expect(Tok::kRBracket);
        } else if (it->second.width != 1) {
            lex_.fail("whole-vector use of '" + t.text + "' not supported");
        }
        if (bit < 0 || bit >= it->second.width) lex_.fail("bit index out of range");
        const Lit v = it->second.bits[std::size_t(bit)];
        if (v == kUnassigned)
            lex_.fail("use of '" + t.text + "' before assignment");
        return v;
    }

    void finish_outputs() {
        for (const auto& name : output_order_) {
            const SignalInfo& info = signals_.at(name);
            for (int b = 0; b < info.width; ++b) {
                const Lit v = info.bits[std::size_t(b)];
                if (v == kUnassigned)
                    throw std::runtime_error("verilog parse error: output bit " +
                                             bit_name(name, info.width, b) +
                                             " never assigned");
                out_.aig.add_po(v);
                out_.output_bits.push_back(bit_name(name, info.width, b));
            }
        }
    }

    static constexpr long long kMaxBits = 1 << 22;
    static constexpr int kMaxNesting = 256;

    Lexer lex_;
    int depth_ = 0;
    ParsedModule out_;
    std::unordered_map<std::string, SignalInfo> signals_;
    std::vector<std::string> output_order_;
};

}  // namespace

ParsedModule parse_structural_verilog(const std::string& text, bool strash) {
    return Parser(text, strash).run();
}

}  // namespace matador::rtl
