// Fuzz-style property tests of the RTL text path: random models and random
// expression structures must survive emit -> parse -> co-simulate
// bit-exactly.  This is the adversarial counterpart of the directed parser
// and writer tests.
#include <gtest/gtest.h>

#include "logic/aig_simulate.hpp"
#include "model/packetization.hpp"
#include "model/trained_model.hpp"
#include "rtl/generators.hpp"
#include "rtl/hcb_builder.hpp"
#include "rtl/verification.hpp"
#include "rtl/verilog_parser.hpp"
#include "rtl/verilog_writer.hpp"
#include "util/rng.hpp"

namespace {

using namespace matador;
using logic::Aig;
using logic::Lit;
using util::Xoshiro256ss;

/// Random trained model: random include masks at a given density, random
/// feature count not aligned to words or bus widths.
model::TrainedModel random_model(std::size_t features, std::size_t classes,
                                 std::size_t cpc, double density,
                                 std::uint64_t seed) {
    model::TrainedModel m(features, classes, cpc);
    Xoshiro256ss rng(seed);
    for (std::size_t c = 0; c < classes; ++c)
        for (std::size_t j = 0; j < cpc; ++j)
            for (std::size_t f = 0; f < features; ++f) {
                const double r = rng.uniform();
                if (r < density)
                    m.clause(c, j).include_pos.set(f);
                else if (r < 2 * density)
                    m.clause(c, j).include_neg.set(f);
            }
    return m;
}

class HcbCosimFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HcbCosimFuzz, RandomModelsRoundTrip) {
    const std::uint64_t seed = GetParam();
    Xoshiro256ss rng(seed);
    const std::size_t features = 17 + rng.below(120);
    const std::size_t classes = 1 + rng.below(4);
    const std::size_t cpc = 2 + rng.below(10);
    const std::size_t bus = 3 + rng.below(30);
    const double density = 0.02 + rng.uniform() * 0.2;

    const auto m = random_model(features, classes, cpc, density, seed * 31 + 7);
    const auto hcbs = rtl::build_hcbs(m, model::PacketPlan(features, bus));
    for (std::size_t k = 0; k < hcbs.size(); ++k) {
        const auto& hcb = hcbs[k];
        const auto text = rtl::emit_hcb_comb(hcb, k);
        std::string err;
        EXPECT_TRUE(rtl::check_hcb_module_text(hcb, text, 8, seed ^ 0xfeed, &err))
            << "seed " << seed << " features " << features << " bus " << bus
            << ": " << err;
    }
}

TEST_P(HcbCosimFuzz, FullLadderOnRandomModels) {
    const std::uint64_t seed = GetParam();
    Xoshiro256ss rng(seed * 977);
    const std::size_t features = 20 + rng.below(60);
    const std::size_t bus = 5 + rng.below(20);

    const auto m = random_model(features, 2, 6, 0.08, seed * 13 + 1);
    model::ArchOptions o;
    o.bus_width = bus;
    const auto design = rtl::generate_rtl(m, model::derive_architecture(m, o));
    const auto rep = rtl::verify_design(design, m, 6, seed);
    EXPECT_TRUE(rep.ok()) << "seed " << seed << ": " << rep.first_failure;
}

INSTANTIATE_TEST_SUITE_P(Seeds, HcbCosimFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

/// Random expression AIGs: emit as a module, parse back, equivalence-check.
class ExprRoundTripFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExprRoundTripFuzz, EmitParsePreservesFunction) {
    const std::uint64_t seed = GetParam();
    Xoshiro256ss rng(seed * 677 + 5);

    Aig g;
    std::vector<Lit> pool;
    const std::size_t pis = 2 + rng.below(7);
    for (std::size_t i = 0; i < pis; ++i) pool.push_back(g.create_pi());
    for (int i = 0; i < 40; ++i) {
        Lit a = pool[rng.below(pool.size())];
        Lit b = pool[rng.below(pool.size())];
        if (rng.bernoulli(0.5)) a = logic::lit_not(a);
        if (rng.bernoulli(0.5)) b = logic::lit_not(b);
        switch (rng.below(3)) {
            case 0: pool.push_back(g.create_and(a, b)); break;
            case 1: pool.push_back(g.create_or(a, b)); break;
            default: pool.push_back(g.create_xor(a, b)); break;
        }
    }
    const std::size_t pos = 1 + rng.below(4);
    for (std::size_t i = 0; i < pos; ++i) {
        Lit o = pool[pool.size() - 1 - rng.below(std::min<std::size_t>(6, pool.size()))];
        if (rng.bernoulli(0.3)) o = logic::lit_not(o);
        g.add_po(o);
    }

    // Emit as a structural module: one assign per AND node.
    rtl::Module mod;
    mod.name = "fuzz";
    mod.ports.push_back({"in", int(pis), rtl::PortDir::kInput, false});
    mod.ports.push_back({"out", int(g.num_pos()), rtl::PortDir::kOutput, false});
    auto lit_expr = [&](Lit l) -> rtl::ExprP {
        rtl::ExprP base;
        if (logic::lit_node(l) == 0)
            base = rtl::bconst(1, 0);
        else if (g.is_pi(logic::lit_node(l)))
            base = rtl::idx("in", int(g.pi_index(logic::lit_node(l))));
        else
            base = rtl::ref("n" + std::to_string(logic::lit_node(l)));
        return logic::lit_complement(l) ? rtl::vnot(base) : base;
    };
    for (std::uint32_t n = 1; n < g.num_nodes(); ++n) {
        if (!g.is_and(n)) continue;
        mod.nets.push_back({"n" + std::to_string(n), 1, false, false, ""});
        mod.assigns.push_back({rtl::ref("n" + std::to_string(n)),
                               rtl::vand(lit_expr(g.node_fanin0(n)),
                                         lit_expr(g.node_fanin1(n)))});
    }
    for (std::size_t i = 0; i < g.num_pos(); ++i)
        mod.assigns.push_back({rtl::idx("out", int(i)), lit_expr(g.po(i))});

    const auto parsed = rtl::parse_structural_verilog(rtl::emit_module(mod));
    ASSERT_EQ(parsed.aig.num_pis(), g.num_pis());
    ASSERT_EQ(parsed.aig.num_pos(), g.num_pos());
    EXPECT_TRUE(logic::exhaustive_equivalent(parsed.aig, g))
        << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprRoundTripFuzz,
                         ::testing::Range<std::uint64_t>(1, 17));

/// Text-corruption detection: flipping an operator in the emitted Verilog
/// must be caught by co-simulation (this is what auto-debug is *for*).
TEST(CorruptionDetection, OperatorFlipCaught) {
    const auto m = random_model(40, 2, 6, 0.12, 99);
    const auto hcbs = rtl::build_hcbs(m, model::PacketPlan(40, 8));
    bool checked_one = false;
    for (const auto& hcb : hcbs) {
        if (hcb.aig.num_ands() == 0) continue;
        std::string text = rtl::emit_hcb_comb(hcb, hcb.spec.packet);
        // Flip the first AND inside an assign into an OR.
        const auto pos = text.find(" & ");
        ASSERT_NE(pos, std::string::npos);
        text[pos + 1] = '|';
        const auto parsed = rtl::parse_structural_verilog(text);
        EXPECT_FALSE(logic::random_equivalent(parsed.aig, hcb.aig, 16, 5))
            << "corrupted module escaped co-simulation";
        // Level 3's own path: the bytes differ, so it co-simulates and fails.
        std::string err;
        EXPECT_FALSE(rtl::check_hcb_module_text(hcb, text, 16, 5, &err))
            << "corrupted module passed level 3";
        EXPECT_NE(err.find("mismatch"), std::string::npos) << err;
        checked_one = true;
        break;
    }
    EXPECT_TRUE(checked_one);
}

}  // namespace
