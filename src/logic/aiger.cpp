#include "logic/aiger.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace matador::logic {

namespace {

/// AIGER variable of every node: inputs first (1..I), then ANDs in node
/// order.  Node order is topological, so AND variables are strictly larger
/// than every fanin's variable.
struct Renumber {
    std::vector<std::uint32_t> var;  ///< per node
    std::vector<std::uint32_t> and_nodes;
    std::size_t num_inputs = 0;
};

Renumber renumber(const Aig& aig) {
    Renumber r;
    r.var.assign(aig.num_nodes(), 0);
    r.num_inputs = aig.num_pis();
    for (std::size_t i = 0; i < aig.num_pis(); ++i)
        r.var[lit_node(aig.pi(i))] = std::uint32_t(i + 1);
    std::uint32_t next = std::uint32_t(r.num_inputs);
    for (std::uint32_t node = 1; node < aig.num_nodes(); ++node)
        if (aig.is_and(node)) {
            r.var[node] = ++next;
            r.and_nodes.push_back(node);
        }
    return r;
}

std::uint32_t map_lit(const Renumber& r, Lit l) {
    return 2 * r.var[lit_node(l)] + std::uint32_t(lit_complement(l));
}

void put_varint(std::string& out, std::uint32_t x) {
    while (x & ~0x7fu) {
        out.push_back(char(0x80u | (x & 0x7fu)));
        x >>= 7;
    }
    out.push_back(char(x));
}

/// Sequential token reader over the document.
class Cursor {
public:
    explicit Cursor(const std::string& data) : data_(data) {}

    std::uint32_t number() {
        skip_spaces();
        if (pos_ >= data_.size() || data_[pos_] < '0' || data_[pos_] > '9')
            fail("expected a number");
        std::uint64_t v = 0;
        while (pos_ < data_.size() && data_[pos_] >= '0' && data_[pos_] <= '9') {
            v = v * 10 + std::uint64_t(data_[pos_++] - '0');
            if (v > 0xffffffffull) fail("number out of range");
        }
        return std::uint32_t(v);
    }

    std::string word() {
        skip_spaces();
        std::string w;
        while (pos_ < data_.size() && data_[pos_] != ' ' && data_[pos_] != '\n' &&
               data_[pos_] != '\r')
            w.push_back(data_[pos_++]);
        return w;
    }

    void newline() {
        if (pos_ < data_.size() && data_[pos_] == '\r') pos_++;
        if (pos_ >= data_.size() || data_[pos_] != '\n') fail("expected end of line");
        pos_++;
    }

    std::uint32_t varint() {
        std::uint32_t x = 0;
        unsigned shift = 0;
        for (;;) {
            if (pos_ >= data_.size()) fail("truncated binary delta");
            const auto byte = std::uint8_t(data_[pos_++]);
            if (shift >= 32) fail("binary delta out of range");
            x |= std::uint32_t(byte & 0x7f) << shift;
            if (!(byte & 0x80)) return x;
            shift += 7;
        }
    }

    /// Bytes not yet read.
    std::size_t remaining() const { return data_.size() - pos_; }

    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error("aiger parse error at offset " +
                                 std::to_string(pos_) + ": " + what);
    }

private:
    void skip_spaces() {
        while (pos_ < data_.size() && data_[pos_] == ' ') pos_++;
    }

    const std::string& data_;
    std::size_t pos_ = 0;
};

struct Header {
    bool binary = false;
    std::uint32_t m = 0, i = 0, l = 0, o = 0, a = 0;
};

Header read_header(Cursor& c) {
    Header h;
    const std::string magic = c.word();
    if (magic == "aig")
        h.binary = true;
    else if (magic != "aag")
        c.fail("expected \"aag\" or \"aig\" magic");
    h.m = c.number();
    h.i = c.number();
    h.l = c.number();
    h.o = c.number();
    h.a = c.number();
    c.newline();
    if (h.l != 0) c.fail("latches are not supported");
    if (std::uint64_t(h.i) + h.a > h.m) c.fail("header M smaller than I + A");
    // The reader sizes its tables from these counts, so bound them before
    // anything is allocated.  Every line, and every binary AND (two
    // varints), takes at least 2 bytes; binary inputs take none, so M (and
    // with M = I + A, binary I) has an explicit cap.
    if (h.m > kAigerMaxVariables) c.fail("header M exceeds the variable limit");
    if (h.binary && h.m != std::uint64_t(h.i) + h.a) c.fail("binary header needs M = I + A");
    const std::uint64_t lines = std::uint64_t(h.binary ? 0 : h.i) + h.o + h.a;
    if (lines > c.remaining() / 2) c.fail("header counts exceed the document size");
    return h;
}

}  // namespace

std::string write_aiger_ascii(const Aig& aig) {
    const Renumber r = renumber(aig);
    std::ostringstream os;
    os << "aag " << r.num_inputs + r.and_nodes.size() << ' ' << r.num_inputs
       << " 0 " << aig.num_pos() << ' ' << r.and_nodes.size() << '\n';
    for (std::size_t i = 0; i < r.num_inputs; ++i) os << 2 * (i + 1) << '\n';
    for (std::size_t o = 0; o < aig.num_pos(); ++o) os << map_lit(r, aig.po(o)) << '\n';
    for (const auto node : r.and_nodes) {
        const std::uint32_t lhs = 2 * r.var[node];
        const std::uint32_t f0 = map_lit(r, aig.node_fanin0(node));
        const std::uint32_t f1 = map_lit(r, aig.node_fanin1(node));
        os << lhs << ' ' << std::max(f0, f1) << ' ' << std::min(f0, f1) << '\n';
    }
    return os.str();
}

std::string write_aiger_binary(const Aig& aig) {
    const Renumber r = renumber(aig);
    std::ostringstream head;
    head << "aig " << r.num_inputs + r.and_nodes.size() << ' ' << r.num_inputs
         << " 0 " << aig.num_pos() << ' ' << r.and_nodes.size() << '\n';
    std::string out = head.str();
    for (std::size_t o = 0; o < aig.num_pos(); ++o)
        out += std::to_string(map_lit(r, aig.po(o))) + "\n";
    for (const auto node : r.and_nodes) {
        const std::uint32_t lhs = 2 * r.var[node];
        const std::uint32_t f0 = map_lit(r, aig.node_fanin0(node));
        const std::uint32_t f1 = map_lit(r, aig.node_fanin1(node));
        const std::uint32_t rhs0 = std::max(f0, f1), rhs1 = std::min(f0, f1);
        put_varint(out, lhs - rhs0);
        put_varint(out, rhs0 - rhs1);
    }
    return out;
}

void write_aiger_file(const Aig& aig, const std::string& path) {
    const bool ascii = path.size() >= 4 && path.compare(path.size() - 4, 4, ".aag") == 0;
    std::ofstream os(path, std::ios::binary);
    if (!os) throw std::runtime_error("aiger: cannot open " + path + " for writing");
    os << (ascii ? write_aiger_ascii(aig) : write_aiger_binary(aig));
    if (!os) throw std::runtime_error("aiger: write to " + path + " failed");
}

Aig read_aiger(const std::string& data, bool strash) {
    Cursor c(data);
    const Header h = read_header(c);

    // AIGER var -> our literal; kInvalidVar marks "not yet defined".
    constexpr Lit kUndef = 0xffffffffu;
    std::vector<Lit> lit_of_var(std::size_t(h.m) + 1, kUndef);
    lit_of_var[0] = kConst0;
    const auto resolve = [&](std::uint32_t aiger_lit, Cursor& cur) {
        if (aiger_lit / 2 > h.m) cur.fail("literal exceeds header M");
        const Lit base = lit_of_var[aiger_lit / 2];
        if (base == kUndef) cur.fail("literal references an undefined variable");
        return base ^ Lit(aiger_lit & 1);
    };

    Aig aig(strash);
    if (h.binary) {
        for (std::uint32_t i = 1; i <= h.i; ++i) lit_of_var[i] = aig.create_pi();
        std::vector<std::uint32_t> outputs(h.o);
        for (auto& o : outputs) {
            o = c.number();
            c.newline();
        }
        for (std::uint32_t n = 0; n < h.a; ++n) {
            const std::uint32_t lhs_var = h.i + 1 + n;
            const std::uint32_t lhs = 2 * lhs_var;
            const std::uint32_t delta0 = c.varint();
            const std::uint32_t delta1 = c.varint();
            if (delta0 > lhs) c.fail("AND delta underflows its lhs");
            const std::uint32_t rhs0 = lhs - delta0;
            if (delta1 > rhs0) c.fail("AND delta underflows rhs0");
            const std::uint32_t rhs1 = rhs0 - delta1;
            lit_of_var[lhs_var] = aig.create_and(resolve(rhs0, c), resolve(rhs1, c));
        }
        for (const auto o : outputs) aig.add_po(resolve(o, c));
    } else {
        std::vector<std::uint32_t> input_lits(h.i);
        for (auto& l : input_lits) {
            l = c.number();
            c.newline();
            if (l & 1) c.fail("input literal must be positive");
            if (l == 0 || l / 2 > h.m) c.fail("input literal out of range");
        }
        for (const auto l : input_lits) {
            if (lit_of_var[l / 2] != kUndef) c.fail("variable defined twice");
            lit_of_var[l / 2] = aig.create_pi();
        }
        std::vector<std::uint32_t> outputs(h.o);
        for (auto& o : outputs) {
            o = c.number();
            c.newline();
        }
        for (std::uint32_t n = 0; n < h.a; ++n) {
            const std::uint32_t lhs = c.number();
            const std::uint32_t rhs0 = c.number();
            const std::uint32_t rhs1 = c.number();
            c.newline();
            if ((lhs & 1) || lhs == 0 || lhs / 2 > h.m) c.fail("bad AND lhs");
            if (lit_of_var[lhs / 2] != kUndef) c.fail("variable defined twice");
            lit_of_var[lhs / 2] = aig.create_and(resolve(rhs0, c), resolve(rhs1, c));
        }
        for (const auto o : outputs) aig.add_po(resolve(o, c));
    }
    // Symbol table and comments (everything after the AND section) are
    // ignored.
    return aig;
}

Aig read_aiger_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is) throw std::runtime_error("aiger: cannot open " + path);
    std::ostringstream buf;
    buf << is.rdbuf();
    return read_aiger(buf.str());
}

}  // namespace matador::logic
