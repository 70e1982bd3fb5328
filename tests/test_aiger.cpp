// Tests for AIGER import/export (src/logic/aiger.*).
//
// The contract under test: exporting one of our own AIGs and importing it
// back is byte-identical on re-export (ascii and binary), the imported
// network is logically equivalent to the original, the two formats agree
// with each other, and malformed documents - latches included, which the
// combinational importer deliberately rejects - fail with a clear error
// instead of producing a silently wrong network.
#include "logic/aiger.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "logic/aig.hpp"
#include "logic/aig_simulate.hpp"
#include "model/architecture.hpp"
#include "model/trained_model.hpp"
#include "rtl/generators.hpp"
#include "util/rng.hpp"

namespace fs = std::filesystem;

namespace {

using namespace matador;
using logic::Aig;

Aig random_aig(std::size_t pis, std::size_t ands, std::size_t pos,
               std::uint64_t seed, bool strash) {
    util::Xoshiro256ss rng(seed);
    Aig aig(strash);
    std::vector<logic::Lit> lits{logic::kConst0, logic::kConst1};
    for (std::size_t i = 0; i < pis; ++i) lits.push_back(aig.create_pi());
    for (std::size_t i = 0; i < ands; ++i) {
        const auto a = lits[rng() % lits.size()] ^ logic::Lit(rng() & 1);
        const auto b = lits[rng() % lits.size()] ^ logic::Lit(rng() & 1);
        lits.push_back(aig.create_and(a, b));
    }
    for (std::size_t i = 0; i < pos; ++i)
        aig.add_po(lits[lits.size() - 1 - (rng() % (ands + 1))] ^
                   logic::Lit(rng() & 1));
    return aig;
}

void expect_equivalent(const Aig& a, const Aig& b) {
    ASSERT_EQ(a.num_pis(), b.num_pis());
    ASSERT_EQ(a.num_pos(), b.num_pos());
    EXPECT_TRUE(logic::random_equivalent(a, b, /*rounds=*/8, /*seed=*/3));
}

TEST(Aiger, AsciiRoundTripIsByteIdentical) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const auto aig = random_aig(6, 20, 3, seed, seed % 2 == 0);
        const auto text = logic::write_aiger_ascii(aig);
        const auto back = logic::read_aiger(text);
        EXPECT_EQ(logic::write_aiger_ascii(back), text) << "seed=" << seed;
        expect_equivalent(aig, back);
    }
}

TEST(Aiger, BinaryRoundTripIsByteIdentical) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const auto aig = random_aig(6, 20, 3, seed, seed % 2 == 0);
        const auto blob = logic::write_aiger_binary(aig);
        const auto back = logic::read_aiger(blob);
        EXPECT_EQ(logic::write_aiger_binary(back), blob) << "seed=" << seed;
        expect_equivalent(aig, back);
    }
}

TEST(Aiger, AsciiAndBinaryDescribeTheSameNetwork) {
    const auto aig = random_aig(8, 30, 4, 17, true);
    const auto from_ascii = logic::read_aiger(logic::write_aiger_ascii(aig));
    const auto from_binary = logic::read_aiger(logic::write_aiger_binary(aig));
    // Both importers renumber identically, so even the re-exported text of
    // the binary path must match the ascii path byte for byte.
    EXPECT_EQ(logic::write_aiger_ascii(from_binary),
              logic::write_aiger_ascii(from_ascii));
    expect_equivalent(from_ascii, from_binary);
}

TEST(Aiger, ConstantAndDegenerateOutputs) {
    Aig aig(/*strash=*/true);
    const auto a = aig.create_pi();
    aig.create_pi();  // unused PI must survive the round-trip
    aig.add_po(logic::kConst1);
    aig.add_po(logic::kConst0);
    aig.add_po(logic::lit_not(a));
    using Writer = std::string (*)(const Aig&);
    for (Writer write : {Writer(&logic::write_aiger_ascii),
                         Writer(&logic::write_aiger_binary)}) {
        const auto doc = write(aig);
        const auto back = logic::read_aiger(doc);
        EXPECT_EQ(write(back), doc);
        EXPECT_EQ(back.num_pis(), 2u);
        EXPECT_TRUE(logic::exhaustive_equivalent(aig, back));
    }
}

TEST(Aiger, SymbolTableAndCommentsAreTolerated) {
    Aig aig(true);
    const auto a = aig.create_pi(), b = aig.create_pi();
    aig.add_po(aig.create_and(a, b));
    auto text = logic::write_aiger_ascii(aig);
    text += "i0 x\ni1 y\no0 f\nc\ngenerated for a tolerance test\n";
    const auto back = logic::read_aiger(text);
    EXPECT_TRUE(logic::exhaustive_equivalent(aig, back));
}

TEST(Aiger, FileRoundTripPicksFormatBySuffix) {
    const auto aig = random_aig(5, 12, 2, 3, true);
    const auto dir = fs::temp_directory_path() / "matador_aiger_test";
    fs::create_directories(dir);
    const auto aag = (dir / "net.aag").string();
    const auto aigf = (dir / "net.aig").string();
    logic::write_aiger_file(aig, aag);
    logic::write_aiger_file(aig, aigf);
    {
        std::ifstream in(aag);
        std::string first;
        in >> first;
        EXPECT_EQ(first, "aag");
    }
    {
        std::ifstream in(aigf, std::ios::binary);
        std::string first;
        in >> first;
        EXPECT_EQ(first, "aig");
    }
    expect_equivalent(aig, logic::read_aiger_file(aag));
    expect_equivalent(aig, logic::read_aiger_file(aigf));
    fs::remove_all(dir);
}

TEST(Aiger, HcbNetlistsRoundTrip) {
    // The real payload: generated HCB netlists survive the trip.
    model::TrainedModel m(12, 2, 4);
    util::Xoshiro256ss rng(5);
    for (std::size_t c = 0; c < 2; ++c)
        for (std::size_t j = 0; j < 4; ++j)
            for (std::size_t f = 0; f < 12; ++f) {
                const double r = rng.uniform();
                if (r < 0.3)
                    m.clause(c, j).include_pos.set(f);
                else if (r < 0.6)
                    m.clause(c, j).include_neg.set(f);
            }
    model::ArchOptions opts;
    opts.bus_width = 6;
    const auto design =
        rtl::generate_rtl(m, model::derive_architecture(m, opts), true);
    ASSERT_FALSE(design.hcbs.empty());
    for (const auto& hcb : design.hcbs) {
        const auto text = logic::write_aiger_ascii(hcb.aig);
        const auto back = logic::read_aiger(text);
        EXPECT_EQ(logic::write_aiger_ascii(back), text);
        expect_equivalent(hcb.aig, back);
        const auto blob = logic::write_aiger_binary(hcb.aig);
        EXPECT_EQ(logic::write_aiger_binary(logic::read_aiger(blob)), blob);
        // Read under the design's strash flag, an HCB keeps the flag and
        // every node (fanins, PI ordinals): the store's disk tier relies on
        // both.
        const auto same = logic::read_aiger(blob, /*strash=*/true);
        EXPECT_TRUE(same.strash_enabled());
        ASSERT_EQ(same.num_nodes(), hcb.aig.num_nodes());
        for (std::uint32_t n = 1; n < same.num_nodes(); ++n) {
            EXPECT_EQ(same.is_pi(n), hcb.aig.is_pi(n)) << n;
            EXPECT_EQ(same.node_fanin0(n), hcb.aig.node_fanin0(n)) << n;
            EXPECT_EQ(same.node_fanin1(n), hcb.aig.node_fanin1(n)) << n;
        }
    }
}

TEST(Aiger, MalformedDocumentsAreRejected) {
    const char* bad[] = {
        "",                          // no header
        "axg 1 1 0 0 0\n",           // bad magic
        "aag 1 1 1 0 0\n2\n",        // latches unsupported
        "aag 1 2 0 0 0\n2\n4\n",     // I+A > M
        "aag 2 1 0 1 1\n2\n7\n",     // output literal out of range
        "aag 2 1 0 0 1\n2\n4 2\n",   // truncated AND line
        "aag 2 1 0 0 1\n3\n4 2 2\n", // odd input literal
        "aag 2 1 0 0 1\n2\n2 4 4\n", // AND redefines an input
        "aag 2 1 0 1 1\n2\n4\n4 6 2\n",  // AND reads an undefined literal
        // Header counts the document cannot hold, rejected before the
        // reader sizes its tables from them (each asked for gigabytes).
        "aag 4294967295 0 0 0 0\n",           // M beyond the variable limit
        "aig 4294967295 4294967295 0 0 0\n",  // binary inputs beyond it
        "aag 3 0 0 4294967295 0\n",           // more outputs than bytes left
        "aig 3 1 0 0 1\n\x02\x01",            // binary M != I + A
    };
    for (const auto* doc : bad)
        EXPECT_THROW(logic::read_aiger(doc), std::runtime_error) << doc;
    // Truncated binary delta stream.
    Aig aig(true);
    const auto a = aig.create_pi(), b = aig.create_pi();
    aig.add_po(aig.create_and(a, b));
    auto blob = logic::write_aiger_binary(aig);
    blob.pop_back();
    EXPECT_THROW(logic::read_aiger(blob), std::runtime_error);
}

}  // namespace
