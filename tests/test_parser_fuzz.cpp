// Seeded mutation fuzzing of the parsers every serve request line goes
// through (util::Json::parse and BitVector::from_string), of the AIGER
// reader the artifact store's generate tier reads from disk, of the
// structural Verilog parser `matador lint <file.v>` and ladder level 3 read,
// and of the model reader behind `--model` and serve's `load` op.  g++ ships no
// libFuzzer, so this is an in-tree mutation loop with a fixed iteration
// budget; the ASan/UBSan build runs it as part of the full suite.  Every
// input is derived from a fixed seed, so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "lint/aig_lint.hpp"
#include "logic/aig.hpp"
#include "logic/aiger.hpp"
#include "model/architecture.hpp"
#include "model/trained_model.hpp"
#include "obs/metrics.hpp"
#include "serve/metrics.hpp"
#include "rtl/generators.hpp"
#include "rtl/verilog_parser.hpp"
#include "serve/server.hpp"
#include "util/bitvector.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace matador;
using util::BitVector;
using util::Json;

/// Serve request lines and control ops lead the corpus.
constexpr std::size_t kRequestSeeds = 9;

/// Serve request lines, control ops and manifest documents to mutate.
std::vector<std::string> seed_corpus() {
    std::vector<std::string> seeds = {
        // predict requests, as clients and `eval --dump-requests` write them
        R"({"id":0,"x":"0101100111010011","label":1})",
        R"({"op":"predict","x":"1100110011001100","model":"default","id":"r-7"})",
        R"({"x":"0000000000000000"})",
        R"({ "id" : 12 , "x" : "1111000011110000" , "label" : 0 })",
        // control ops
        R"({"op":"load","path":"model.tm","alias":"canary","id":1})",
        R"({"op":"load","hash":"1a2b3c"})",
        R"({"op":"swap","alias":"default","target":"1a2b3c4d5e6f7a8b"})",
        R"({"op":"models"})",
        R"({"op":"status","id":null})",
        // a fault plan and hand-written edge cases
        R"({"seed": 3, "rules": [{"class": "enospc", "op": "write",
            "path": "results", "at": 1}, {"class": "eio", "op": "fsync",
            "at": 2, "count": 4, "p": 0.25}]})",
        R"(["esc \" \\ \/ \b \f \n \r \t", "é😀", -0, 1e-7,
            2.5E+300, true, false, null, {}, [[]], {"":{"":[0.1]}}])",
    };
    // Manifests the system writes itself: a serve-status snapshot and a
    // metrics registry document, compact and pretty.
    serve::ServeMetrics serve_metrics;
    serve_metrics.record_batch("0123456789abcdef", 17);
    serve_metrics.record_response("0123456789abcdef", 812.25, true);
    serve_metrics.record_shed("0123456789abcdef", "queue-full", 1024);
    seeds.push_back(serve_metrics.snapshot_json().dump());
    seeds.push_back(serve_metrics.snapshot_json().dump(2));
    obs::MetricsRegistry registry;
    registry.counter("shard_points_run", {{"shard", "s0"}}).add(3);
    registry.gauge("queue_depth").set(7.5);
    registry.histogram("sat_proof_seconds").record(0.0125);
    seeds.push_back(registry.to_json().dump(2));
    return seeds;
}

/// libFuzzer-style mutations: bit flips, byte swaps, token inserts,
/// deletions, duplications and truncation.
class Mutator {
public:
    explicit Mutator(std::uint64_t seed) : rng_(seed) {}

    std::string mutate(std::string s) {
        const std::size_t steps = 1 + below(3);
        for (std::size_t i = 0; i < steps; ++i) step(s);
        return s;
    }

    std::size_t below(std::size_t n) { return n == 0 ? 0 : rng_() % n; }

private:
    void step(std::string& s) {
        static const char* const kTokens[] = {
            "\"", "\\", "\\u", "\\ud83d", "\\udc00", "\\u0000", "{", "}",
            "[", "]", ",", ":", "true", "null", "false", "1e400", "-0",
            "1e-400", "4.9e-324", "\"x\":", "\"label\":", "\"op\":",
            "0101", "\"id\":", " ", "\t", "\x01", "\x7f", "\xc3\xa9", "\xff"};
        const std::size_t at = below(s.size() + 1);
        switch (below(6)) {
            case 0:  // flip one bit
                if (!s.empty()) s[at % s.size()] ^= char(1u << below(8));
                break;
            case 1:  // replace one byte
                if (!s.empty()) s[at % s.size()] = char(below(256));
                break;
            case 2:  // insert a token
                s.insert(at, kTokens[below(std::size(kTokens))]);
                break;
            case 3:  // delete a range
                s.erase(at, 1 + below(16));
                break;
            case 4: {  // duplicate a range somewhere else
                const std::string piece = s.substr(at, 1 + below(32));
                s.insert(below(s.size() + 1), piece);
                break;
            }
            default:  // truncate
                s.resize(at);
        }
    }

    util::Xoshiro256ss rng_;
};

TEST(ParserFuzz, JsonRejectsOrRoundTrips) {
    const auto seeds = seed_corpus();
    for (const auto& s : seeds)
        ASSERT_NO_THROW(Json::parse(s)) << "bad seed: " << s;

    Mutator mutator(20240612);
    std::size_t accepted = 0;
    const std::size_t kIterations = 30000;
    for (std::size_t i = 0; i < kIterations; ++i) {
        const std::string input =
            mutator.mutate(seeds[mutator.below(seeds.size())]);
        Json value;
        try {
            value = Json::parse(input);
        } catch (const std::runtime_error&) {
            continue;  // rejected cleanly; any other exception fails
        }
        ++accepted;
        const std::string text = value.dump();
        ASSERT_EQ(Json::parse(text).dump(), text)
            << "iteration " << i << " input: " << input;
        ASSERT_EQ(Json::parse(value.dump(2)).dump(), text)
            << "iteration " << i << " input: " << input;
    }
    // The mutator must keep a fair share of inputs parseable, or the
    // round-trip half of the check would test nothing.
    EXPECT_GT(accepted, kIterations / 10);
    EXPECT_LT(accepted, kIterations);
}

TEST(ParserFuzz, ServerAnswersEveryMutatedLine) {
    serve::ServerOptions options;
    options.threads = 1;
    serve::Server server(options);
    model::TrainedModel m(16, 2, 4);
    m.clause(0, 0).include_pos.set(3);
    m.clause(1, 0).include_neg.set(5);
    server.registry().set_alias("default", server.registry().add(m)->hash_hex);

    Mutator mutator(77);
    const auto seeds = seed_corpus();
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < 3000; ++i) {
        std::string line = mutator.mutate(seeds[mutator.below(kRequestSeeds)]);
        std::replace(line.begin(), line.end(), '\n', ' ');
        // Blank lines get no reply, and shutdown would stop the reading.
        if (line.find_first_not_of(" \t\r") == std::string::npos ||
            line.find("shutdown") != std::string::npos)
            continue;
        lines.push_back(std::move(line));
    }
    std::string text;
    for (const auto& line : lines) text += line + "\n";
    std::istringstream in(text);
    std::ostringstream out;
    ASSERT_EQ(server.run(in, out), 0);

    std::istringstream replies(out.str());
    std::size_t n = 0;
    for (std::string reply; std::getline(replies, reply); ++n) {
        const Json r = Json::parse(reply);
        ASSERT_TRUE(r.at("ok").is_bool()) << reply;
        if (!r.at("ok").as_bool())
            EXPECT_TRUE(r.at("error").is_string()) << reply;
    }
    EXPECT_EQ(n, lines.size());
}

/// AIGER documents to mutate: the ascii and binary exports of a small
/// hand-built AIG (complemented edges, a constant output) and of one
/// generated HCB netlist.
std::vector<std::string> aiger_corpus() {
    logic::Aig small(/*strash=*/false);
    const logic::Lit a = small.create_pi(), b = small.create_pi(), c = small.create_pi();
    const logic::Lit ab = small.create_and(a, logic::lit_not(b));
    small.add_po(small.create_and(logic::lit_not(ab), c));
    small.add_po(logic::lit_not(ab));
    small.add_po(logic::kConst1);

    model::TrainedModel m(8, 2, 3);
    util::Xoshiro256ss rng(9);
    for (std::size_t k = 0; k < 2; ++k)
        for (std::size_t j = 0; j < 3; ++j)
            for (std::size_t f = 0; f < 8; ++f) {
                const std::uint64_t r = rng() % 3;
                if (r == 0) m.clause(k, j).include_pos.set(f);
                if (r == 1) m.clause(k, j).include_neg.set(f);
            }
    model::ArchOptions opts;
    opts.bus_width = 4;
    const auto design = rtl::generate_rtl(m, model::derive_architecture(m, opts), true);
    const logic::Aig& hcb = design.hcbs.at(0).aig;

    return {logic::write_aiger_ascii(small), logic::write_aiger_binary(small),
            logic::write_aiger_ascii(hcb), logic::write_aiger_binary(hcb)};
}

TEST(ParserFuzz, AigerReaderRejectsOrRoundTrips) {
    const auto seeds = aiger_corpus();
    for (const auto& s : seeds)
        ASSERT_NO_THROW(logic::read_aiger(s)) << "bad seed: " << s;

    Mutator mutator(20261019);
    std::size_t accepted = 0;
    const std::size_t kIterations = 40000;
    for (std::size_t i = 0; i < kIterations; ++i) {
        const std::string input =
            mutator.mutate(seeds[mutator.below(seeds.size())]);
        std::string blob;
        try {
            blob = logic::write_aiger_binary(logic::read_aiger(input));
        } catch (const std::runtime_error&) {
            continue;  // rejected cleanly; any other exception fails
        }
        ++accepted;
        // Whatever was accepted exports to a canonical document that
        // re-imports to the same bytes.
        ASSERT_EQ(logic::write_aiger_binary(logic::read_aiger(blob)), blob)
            << "iteration " << i;
    }
    // The reader is strict (every count and literal is checked), so most
    // mutants are refused; enough must still load for the round trip to
    // test something.
    EXPECT_GT(accepted, kIterations / 100);
    EXPECT_LT(accepted, kIterations);
}

/// Verilog to mutate: one emitted HCB comb module of a small random model,
/// and a hand-written module with every construct the parser reads.
std::vector<std::string> verilog_corpus() {
    model::TrainedModel m(12, 2, 3);
    util::Xoshiro256ss rng(13);
    for (std::size_t k = 0; k < 2; ++k)
        for (std::size_t j = 0; j < 3; ++j)
            for (std::size_t f = 0; f < 12; ++f) {
                const std::uint64_t r = rng() % 4;
                if (r == 0) m.clause(k, j).include_pos.set(f);
                if (r == 1) m.clause(k, j).include_neg.set(f);
            }
    model::ArchOptions opts;
    opts.bus_width = 6;
    const auto design = rtl::generate_rtl(m, model::derive_architecture(m, opts), true);
    return {design.hcb_comb.at(1), R"(// every construct
module every (
  input wire [3:0] a,
  input b,
  output wire [2:0] y,
  output z
);
  (* keep *) wire t;
  wire [1:0] u;
  assign t = ~(a[0] & b) | (a[1] ^ ~a[2]);
  assign u[0] = t & 1'b1;
  assign u[1] = (a[3] | 1'b0) ^ t;
  assign y[0] = u[0];
  assign y[1] = ~u[1] & (t | ~~b);
  assign y[2] = 1'b0;
  assign z = ((a[0])) ^ (u[1] & ~(b | 1'b1));
endmodule
)"};
}

/// Parse `text` and check what the parser promises of anything it accepts.
/// Returns false when the text was rejected with std::runtime_error.
bool parses_soundly(const std::string& text, bool strash) {
    rtl::ParsedModule parsed;
    try {
        parsed = rtl::parse_structural_verilog(text, strash);
    } catch (const std::runtime_error&) {
        return false;  // rejected cleanly; any other exception fails
    }
    EXPECT_EQ(parsed.aig.num_pis(), parsed.input_bits.size());
    EXPECT_EQ(parsed.aig.num_pos(), parsed.output_bits.size());
    std::vector<lint::Finding> findings;
    EXPECT_NO_THROW(lint::lint_aig(parsed.aig, "fuzz", findings));
    return true;
}

TEST(ParserFuzz, VerilogParserRejectsOrParses) {
    const auto seeds = verilog_corpus();
    for (const auto& s : seeds) ASSERT_TRUE(parses_soundly(s, true)) << "bad seed: " << s;

    Mutator mutator(20261020);
    std::size_t accepted = 0;
    const std::size_t kIterations = 20000;
    for (std::size_t i = 0; i < kIterations; ++i) {
        const std::string input = mutator.mutate(seeds[mutator.below(seeds.size())]);
        const bool ok = parses_soundly(input, i % 2 == 0);
        ASSERT_FALSE(::testing::Test::HasFailure()) << "iteration " << i << " input:\n" << input;
        accepted += ok;
    }
    // Comments, whitespace and commutable operands leave many mutants
    // parseable; the strict declarations refuse the rest.
    EXPECT_GT(accepted, kIterations / 100);
    EXPECT_LT(accepted, kIterations);
}

TEST(ParserFuzz, VerilogParserRefusesOversizedInput) {
    // Numbers beyond int, widths whose msb + 1 overflows, and nesting deep
    // enough to exhaust the stack: each must be a clean std::runtime_error
    // (std::stoi threw std::out_of_range for the first, and the width
    // overflowed for the second).
    const std::string tail = ", output y);\n  assign y = a[0];\nendmodule\n";
    for (const char* width : {"99999999999", "2147483647", "4194304"})
        EXPECT_THROW(rtl::parse_structural_verilog(
                         std::string("module m (input wire [") + width + ":0] a" + tail),
                     std::runtime_error)
            << width;
    EXPECT_THROW(rtl::parse_structural_verilog(
                     "module m (input wire [3:0] a, output y);\n"
                     "  assign y = a[99999999999];\nendmodule\n"),
                 std::runtime_error);
    const std::string deep = "module m (input a, output y);\n  assign y = " +
                             std::string(100000, '(') + "a" + std::string(100000, ')') +
                             ";\nendmodule\n";
    EXPECT_THROW(rtl::parse_structural_verilog(deep), std::runtime_error);
    // A long chain of inversions is legal Verilog and must parse.
    const auto inverted = rtl::parse_structural_verilog(
        "module m (input a, output y);\n  assign y = " + std::string(100001, '~') +
        "a;\nendmodule\n");
    EXPECT_EQ(inverted.aig.po(0), logic::lit_not(inverted.aig.pi(0)));
}

/// `m` in its saved text form.
std::string saved(const model::TrainedModel& m) {
    std::ostringstream os;
    m.save(os);
    return os.str();
}

model::TrainedModel loaded(const std::string& text) {
    std::istringstream is(text);
    return model::TrainedModel::load(is);
}

TEST(ParserFuzz, TrainedModelLoadRejectsOrRoundTrips) {
    model::TrainedModel m(16, 2, 4);
    util::Xoshiro256ss rng(29);
    for (std::size_t c = 0; c < 2; ++c)
        for (std::size_t j = 0; j < 4; ++j)
            for (std::size_t f = 0; f < 16; ++f) {
                const std::uint64_t r = rng() % 5;
                if (r == 0) m.clause(c, j).include_pos.set(f);
                if (r == 1) m.clause(c, j).include_neg.set(f);
            }
    const std::string seed = saved(m);
    ASSERT_EQ(saved(loaded(seed)), seed);

    // Headers that would size a model of gigabytes: each must be refused,
    // naming the field over its bound, before the model is allocated.
    const auto header = [](const std::string& f, const std::string& k, const std::string& j) {
        return "MATADOR-TM v1\nfeatures " + f + "\nclasses " + k + "\nclauses_per_class " + j +
               "\nend\n";
    };
    const std::pair<std::string, std::string> oversized[] = {
        {header("4000000000", "2", "4"), "features 4000000000"},
        {header("16", "100000", "100000"), "classes 100000"},
        {header("16", "2", "100000"), "clauses_per_class 100000"},
        {header("16", "1000", "1000"), "classes x clauses_per_class 1000000"},
        {header("60000", "100", "100"), "features x classes x clauses_per_class 600000000"},
        {header("-1", "2", "4"), "features 18446744073709551615"},
    };
    for (const auto& [text, field] : oversized) {
        try {
            loaded(text);
            ADD_FAILURE() << "loaded: " << text;
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(": " + field + " exceeds the limit of "),
                      std::string::npos)
                << e.what();
        }
    }

    Mutator mutator(20261020);
    std::size_t accepted = 0;
    const std::size_t kIterations = 20000;
    for (std::size_t i = 0; i < kIterations; ++i) {
        const std::string input = mutator.mutate(seed);
        std::string text;
        try {
            text = saved(loaded(input));
        } catch (const std::runtime_error&) {
            continue;  // rejected cleanly; any other exception fails
        }
        ++accepted;
        // Whatever loads saves to a canonical text that loads back to the
        // same model.
        ASSERT_EQ(saved(loaded(text)), text) << "iteration " << i << " input: " << input;
    }
    EXPECT_GT(accepted, kIterations / 100);
    EXPECT_LT(accepted, kIterations);
}

TEST(ParserFuzz, FromStringMatchesPerCharacterReference) {
    util::Xoshiro256ss rng(4242);
    for (std::size_t len = 0; len <= 1100; ++len) {
        std::string bits(len, '0');
        BitVector want(len);
        for (std::size_t i = 0; i < len; ++i)
            if (rng() & 1) {
                bits[i] = '1';
                want.set(i);
            }
        const BitVector got = BitVector::from_string(bits);
        ASSERT_EQ(got, want) << "length " << len;
        ASSERT_EQ(got.to_string(), bits);
        if (len == 0) continue;

        // One invalid byte anywhere must be rejected, including the bytes
        // just below and above '0'/'1' and '0'/'1' with the high bit set.
        static const unsigned char kBad[] = {0x00, '/', '2', '9', ' ',
                                             0xb0, 0xb1, 0xff, 'x'};
        std::string bad = bits;
        bad[rng() % len] = char(kBad[rng() % std::size(kBad)]);
        EXPECT_THROW(BitVector::from_string(bad), std::invalid_argument)
            << "length " << len;
    }
}

}  // namespace
