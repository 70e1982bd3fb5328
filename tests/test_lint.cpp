// Tests for the lint pass (the level-0 rung of the verify ladder).
//
// Three angles: (1) a fuzz corpus of generated designs must lint clean -
// the CI gate depends on it; (2) mutation tests - each seeded defect class
// must be caught by its named check id, so the catalog stays honest; (3)
// the ternary 0/1/X engine's semantics, the X-insensitivity proofs, JSON
// round-tripping, and the lint artifact's disk tier.
#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/artifact_store.hpp"
#include "lint/ternary.hpp"
#include "logic/aig.hpp"
#include "logic/lut_network.hpp"
#include "model/architecture.hpp"
#include "model/trained_model.hpp"
#include "rtl/generators.hpp"
#include "train/worker_pool.hpp"
#include "util/rng.hpp"

namespace fs = std::filesystem;

namespace {

using namespace matador;
using lint::check_x_insensitive;
using lint::Finding;
using lint::LintReport;
using lint::Severity;
using lint::TernaryWord;
using lint::ternary_const;
using lint::ternary_x;
using logic::Aig;
using logic::LutNetwork;
using logic::MappedLut;
using rtl::PortDir;

model::TrainedModel random_model(std::size_t features, std::size_t classes,
                                 std::size_t cpc, double density,
                                 std::uint64_t seed) {
    model::TrainedModel m(features, classes, cpc);
    util::Xoshiro256ss rng(seed);
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

rtl::RtlDesign generate(const model::TrainedModel& m, bool strash,
                        std::size_t bus_width = 8) {
    model::ArchOptions opts;
    opts.bus_width = bus_width;
    return rtl::generate_rtl(m, model::derive_architecture(m, opts), strash);
}

bool has_check(const std::vector<Finding>& findings, const char* check) {
    for (const auto& f : findings)
        if (f.check == check) return true;
    return false;
}

std::string render(const std::vector<Finding>& findings) {
    std::string out;
    for (const auto& f : findings)
        out += std::string(severity_name(f.severity)) + " [" + f.check + "] " +
               f.where + " / " + f.object + ": " + f.message + "\n";
    return out;
}

// ---------------------------------------------------------------------------
// Fuzz corpus: generated designs lint clean
// ---------------------------------------------------------------------------

class LintFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LintFuzz, GeneratedDesignsLintClean) {
    const std::uint64_t seed = GetParam();
    util::Xoshiro256ss rng(seed);
    const std::size_t features = 12 + rng.below(40);
    const std::size_t classes = 2 + rng.below(3);
    const std::size_t cpc = 3 + rng.below(6);
    const double density = 0.05 + rng.uniform() * 0.1;
    const auto m = random_model(features, classes, cpc, density, seed * 7 + 1);

    for (const bool strash : {true, false}) {
        const auto design = generate(m, strash);
        const auto report = lint::lint_design(design, &m);
        EXPECT_TRUE(report.clean(Severity::kWarning))
            << "seed " << seed << " strash " << strash << "\n"
            << lint::format_lint_report(report);
        EXPECT_GT(report.stats.x_outputs_checked, 0u);
        EXPECT_EQ(report.stats.x_outputs_checked,
                  report.stats.x_proved_structural);
    }
}

INSTANTIATE_TEST_SUITE_P(Corpus, LintFuzz,
                         ::testing::Values(1, 2, 3, 11, 29));

// ---------------------------------------------------------------------------
// Mutation tests: each defect class trips its named check
// ---------------------------------------------------------------------------

/// 1-bit a, b in; y out; body filled per test.
rtl::Module skeleton() {
    rtl::Module m;
    m.name = "mut";
    m.ports = {{"a", 1, PortDir::kInput, false},
               {"b", 1, PortDir::kInput, false},
               {"y", 1, PortDir::kOutput, false}};
    return m;
}

std::vector<Finding> lint_one(const rtl::Module& m) {
    std::vector<Finding> findings;
    lint::lint_module(m, {&m}, findings);
    return findings;
}

TEST(ModuleLintMutation, CleanModuleHasNoFindings) {
    auto m = skeleton();
    m.assigns.push_back({rtl::ref("y"), rtl::vand(rtl::ref("a"), rtl::ref("b"))});
    const auto findings = lint_one(m);
    EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(ModuleLintMutation, CombinationalCycle) {
    auto m = skeleton();
    m.nets = {{"w1", 1, false, false, ""}, {"w2", 1, false, false, ""}};
    m.assigns.push_back({rtl::ref("w1"), rtl::vand(rtl::ref("w2"), rtl::ref("a"))});
    m.assigns.push_back({rtl::ref("w2"), rtl::ref("w1")});
    m.assigns.push_back({rtl::ref("y"), rtl::ref("w1")});
    EXPECT_TRUE(has_check(lint_one(m), lint::check::kCombCycle));
}

TEST(ModuleLintMutation, SelfLoopIsACycle) {
    auto m = skeleton();
    m.nets = {{"w", 1, false, false, ""}};
    m.assigns.push_back({rtl::ref("w"), rtl::vand(rtl::ref("w"), rtl::ref("a"))});
    m.assigns.push_back({rtl::ref("y"), rtl::ref("w")});
    EXPECT_TRUE(has_check(lint_one(m), lint::check::kCombCycle));
}

TEST(ModuleLintMutation, RegisterBreaksTheCycle) {
    auto m = skeleton();
    m.ports.insert(m.ports.begin(), {"clk", 1, PortDir::kInput, false});
    m.nets = {{"r", 1, true, false, ""}, {"w", 1, false, false, ""}};
    rtl::AlwaysFF ff;
    ff.body.push_back(rtl::nb(rtl::ref("r"), rtl::ref("w")));
    m.always_blocks.push_back(std::move(ff));
    m.assigns.push_back({rtl::ref("w"), rtl::vand(rtl::ref("r"), rtl::ref("a"))});
    m.assigns.push_back({rtl::ref("y"), rtl::ref("w")});
    EXPECT_FALSE(has_check(lint_one(m), lint::check::kCombCycle));
}

TEST(ModuleLintMutation, UndrivenNet) {
    auto m = skeleton();
    m.nets = {{"w", 1, false, false, ""}};
    m.assigns.push_back({rtl::ref("y"), rtl::vand(rtl::ref("a"), rtl::ref("w"))});
    EXPECT_TRUE(has_check(lint_one(m), lint::check::kUndriven));
}

TEST(ModuleLintMutation, MultiplyDrivenNet) {
    auto m = skeleton();
    m.assigns.push_back({rtl::ref("y"), rtl::ref("a")});
    m.assigns.push_back({rtl::ref("y"), rtl::ref("b")});
    EXPECT_TRUE(has_check(lint_one(m), lint::check::kMultiDriven));
}

TEST(ModuleLintMutation, WidthMismatch) {
    rtl::Module m;
    m.name = "mut";
    m.ports = {{"a", 4, PortDir::kInput, false},
               {"b", 2, PortDir::kInput, false},
               {"y", 4, PortDir::kOutput, false}};
    m.assigns.push_back({rtl::ref("y"), rtl::vand(rtl::ref("a"), rtl::ref("b"))});
    EXPECT_TRUE(has_check(lint_one(m), lint::check::kWidthMismatch));
}

TEST(ModuleLintMutation, UnusedNet) {
    auto m = skeleton();
    m.nets = {{"u", 1, false, false, ""}};
    m.assigns.push_back({rtl::ref("u"), rtl::ref("a")});
    m.assigns.push_back({rtl::ref("y"), rtl::ref("b")});
    EXPECT_TRUE(has_check(lint_one(m), lint::check::kUnused));
}

TEST(ModuleLintMutation, DeadLogicChain) {
    auto m = skeleton();
    m.nets = {{"d1", 1, false, false, ""}, {"d2", 1, false, false, ""}};
    // d1 is read, but only by d2, which never reaches the output.
    m.assigns.push_back({rtl::ref("d1"), rtl::ref("a")});
    m.assigns.push_back({rtl::ref("d2"), rtl::ref("d1")});
    m.assigns.push_back({rtl::ref("y"), rtl::ref("b")});
    const auto findings = lint_one(m);
    EXPECT_TRUE(has_check(findings, lint::check::kDeadLogic)) << render(findings);
    EXPECT_TRUE(has_check(findings, lint::check::kUnused)) << render(findings);
}

TEST(ModuleLintMutation, ConstantLogic) {
    auto m = skeleton();
    m.nets = {{"c", 1, false, false, ""}};
    m.assigns.push_back({rtl::ref("c"), rtl::vnot(rtl::bconst(1, 0))});
    m.assigns.push_back({rtl::ref("y"), rtl::vand(rtl::ref("c"), rtl::ref("a"))});
    EXPECT_TRUE(has_check(lint_one(m), lint::check::kConstLogic));
}

TEST(ModuleLintMutation, BitSelectOutOfRange) {
    rtl::Module m;
    m.name = "mut";
    m.ports = {{"a", 4, PortDir::kInput, false},
               {"y", 1, PortDir::kOutput, false}};
    m.assigns.push_back({rtl::ref("y"), rtl::idx("a", 6)});
    EXPECT_TRUE(has_check(lint_one(m), lint::check::kBitRange));
}

TEST(ModuleLintMutation, UnknownNet) {
    auto m = skeleton();
    m.assigns.push_back({rtl::ref("y"), rtl::ref("ghost")});
    EXPECT_TRUE(has_check(lint_one(m), lint::check::kUnknownNet));
}

TEST(ModuleLintMutation, InstanceOfUnknownModuleIsInfo) {
    auto m = skeleton();
    m.assigns.push_back({rtl::ref("y"), rtl::ref("a")});
    m.instances.push_back({"mystery", "u0", {{"p", rtl::ref("b")}}});
    std::vector<Finding> findings;
    lint::lint_module(m, {&m}, findings);
    bool found = false;
    for (const auto& f : findings)
        if (f.check == lint::check::kUnknownModule) {
            found = true;
            EXPECT_EQ(f.severity, Severity::kInfo);
        }
    EXPECT_TRUE(found);
}

TEST(ModuleLintMutation, InstanceWithNonexistentPort) {
    rtl::Module child;
    child.name = "leaf";
    child.ports = {{"i", 1, PortDir::kInput, false},
                   {"o", 1, PortDir::kOutput, false}};
    child.assigns.push_back({rtl::ref("o"), rtl::ref("i")});

    auto parent = skeleton();
    parent.assigns.push_back({rtl::ref("y"), rtl::ref("a")});
    parent.instances.push_back({"leaf", "u0", {{"bogus", rtl::ref("b")}}});
    std::vector<Finding> findings;
    lint::lint_module(parent, {&parent, &child}, findings);
    bool found = false;
    for (const auto& f : findings)
        if (f.check == lint::check::kUnknownModule &&
            f.severity == Severity::kError)
            found = true;
    EXPECT_TRUE(found) << render(findings);
}

TEST(ModuleLintMutation, EveryFindingClassMatchesRecordedReport) {
    // One module that trips every module-lint check, several of them in
    // more than one way.  The findings, their order and their text are
    // pinned: they depend on the order nets are visited (by name), on the
    // order assigns fold constants (the first fold of a multi-driven net
    // wins: kz reads mc as 1) and on where each unknown name is met first.
    rtl::Module leaf;
    leaf.name = "leaf";
    leaf.ports = {{"i", 1, PortDir::kInput, false}, {"o", 1, PortDir::kOutput, false}};
    leaf.assigns.push_back({rtl::ref("o"), rtl::ref("i")});

    rtl::Module m;
    m.name = "every";
    m.ports = {{"clk", 1, PortDir::kInput, false},   {"a", 4, PortDir::kInput, false},
               {"b", 2, PortDir::kInput, false},     {"s", 1, PortDir::kInput, false},
               {"unused_in", 1, PortDir::kInput, false}, {"y", 4, PortDir::kOutput, false},
               {"z", 1, PortDir::kOutput, false},    {"q", 1, PortDir::kOutput, true},
               {"o2", 1, PortDir::kOutput, false}};
    for (const char* n : {"w1", "w2", "sl", "und", "md", "ca", "dr", "du", "d1", "d2", "mc",
                          "kz", "oob", "w3", "w4", "sink"})
        m.nets.push_back({n, 1, false, false, ""});
    m.nets.push_back({"r", 1, true, false, ""});
    m.nets.push_back({"wide", 4, false, false, ""});
    m.nets.push_back({"bw", 2, false, false, ""});
    m.nets.push_back({"tb", 2, false, false, ""});
    m.nets.push_back({"b2", 2, false, false, ""});
    m.nets.push_back({"a", 3, false, false, ""});  // the port declaration wins

    const auto assign = [&](rtl::ExprP lhs, rtl::ExprP rhs) {
        m.assigns.push_back({std::move(lhs), std::move(rhs)});
    };
    using rtl::ref;
    assign(ref("w1"), rtl::vand(ref("w2"), rtl::idx("a", 0)));  // w1 -> w2 -> w1
    assign(ref("w2"), rtl::vor(ref("w1"), ref("s")));
    assign(ref("sl"), rtl::vxor(ref("sl"), ref("s")));  // self-loop
    assign(ref("z"), rtl::vand(ref("und"), ref("s")));  // und: read, never driven
    assign(ref("md"), rtl::idx("a", 0));                // two continuous drivers
    assign(ref("md"), rtl::idx("a", 1));
    assign(ref("ca"), ref("s"));                        // continuous + always
    assign(ref("dr"), ref("s"));                        // driven, never read
    assign(ref("d1"), rtl::idx("a", 2));                // dead: read only by d2
    assign(ref("d2"), ref("d1"));
    assign(ref("kz"), rtl::vnot(ref("mc")));            // folds from mc's first driver
    assign(ref("mc"), rtl::vnot(rtl::bconst(1, 0)));    // conflicting constants
    assign(ref("mc"), rtl::vnot(rtl::bconst(1, 1)));
    assign(ref("wide"), ref("b"));                      // 4 <- 2
    assign(ref("bw"), rtl::vand(ref("a"), ref("b")));   // 4 & 2
    assign(ref("tb"), rtl::vternary(ref("s"), ref("a"), ref("b")));
    assign(ref("oob"), rtl::vor(rtl::idx("a", 7), rtl::slice("a", 9, 8)));
    assign(rtl::idx("b2", 3), ref("s"));                // lvalue out of range
    assign(rtl::slice("b2", 1, 0), rtl::vconcat({ref("s"), ref("s")}));
    assign(ref("phantom"), ref("s"));                   // undeclared lvalue
    assign(ref("w3"), ref("w4"));                       // cycle through leaf u0
    assign(ref("sink"), rtl::vxor(ref("kz"), ref("ghost")));
    assign(ref("y"), rtl::vconcat({ref("ghost"), ref("oob"), ref("md"), ref("sl"),
                                  ref("w1"), ref("ca"), ref("wide"), ref("bw"), ref("tb"),
                                  ref("b2"), ref("r"), ref("sink"), ref("w3")}));

    rtl::AlwaysFF ff;
    ff.body.push_back(rtl::nb(ref("r"), ref("w1")));
    ff.body.push_back(rtl::nb(ref("ca"), ref("s")));
    ff.body.push_back(rtl::nb(ref("q"), rtl::vand(ref("r"), ref("ghost_reg"))));
    m.always_blocks.push_back(std::move(ff));

    m.instances.push_back({"leaf", "u0", {{"i", ref("w3")}, {"o", ref("w4")}}});
    m.instances.push_back(
        {"leaf", "u1", {{"i", ref("a")}, {"o", ref("o2")}, {"bogus", ref("s")}}});
    m.instances.push_back({"mystery", "u2", {{"p", ref("ghost_pin")}}});

    std::vector<Finding> findings;
    lint::lint_module(m, {&m, &leaf}, findings);
    const std::string want = R"(warning [width-mismatch] module every / wide: assign width mismatch: lhs 4 bits, rhs 2 bits
warning [width-mismatch] module every / : bitwise operands differ in width: 4 vs 2
warning [width-mismatch] module every / bw: assign width mismatch: lhs 2 bits, rhs 4 bits
warning [width-mismatch] module every / : ternary branches differ in width: 4 vs 2
warning [width-mismatch] module every / tb: assign width mismatch: lhs 2 bits, rhs 4 bits
error [bit-out-of-range] module every / a: select [7] outside [3:0]
error [bit-out-of-range] module every / a: select [9:8] outside [3:0]
warning [width-mismatch] module every / : bitwise operands differ in width: 1 vs 2
warning [width-mismatch] module every / oob: assign width mismatch: lhs 1 bits, rhs 2 bits
error [bit-out-of-range] module every / b2: select [3] outside [1:0]
error [bit-out-of-range] module every / b2: select [3] outside [1:0]
error [unknown-net] module every / phantom: referenced but never declared
error [unknown-net] module every / ghost: referenced but never declared
error [unknown-net] module every / ghost_reg: referenced but never declared
warning [width-mismatch] module every / u1.i: port is 1 bits, connection is 4
error [unknown-module] module every / u1: connection to nonexistent port 'bogus' of module 'leaf'
info [unknown-module] module every / u2: instance of 'mystery' outside the lint scope; connections unchecked
error [unknown-net] module every / ghost_pin: referenced but never declared
error [net-multidriven] module every / ca: driven by both a continuous assign and an always block
warning [net-unused] module every / d2: driven but never read
warning [net-unused] module every / dr: driven but never read
info [net-unused] module every / du: declared but never used
error [net-multidriven] module every / mc: bit 0 has multiple continuous drivers
error [net-multidriven] module every / md: bit 0 has multiple continuous drivers
error [net-undriven] module every / und: read but never driven
info [net-unused] module every / unused_in: input port never read
error [comb-cycle] module every / w1: combinational cycle through w1 -> w2
error [comb-cycle] module every / sl: combinational cycle through sl
error [comb-cycle] module every / w3: combinational cycle through w3 -> w4
warning [dead-logic] module every / d1: never reaches an output, register, or instance
warning [const-logic] module every / kz: always evaluates to 1'b0
warning [const-logic] module every / mc: always evaluates to 1'b1
warning [const-logic] module every / mc: always evaluates to 1'b0
)";
    EXPECT_EQ(render(findings), want);
}

// ---------------------------------------------------------------------------
// AIG and LUT mutations
// ---------------------------------------------------------------------------

TEST(AigLintMutation, DeadNodeAndConstOutput) {
    Aig aig;
    const auto a = aig.create_pi();
    const auto b = aig.create_pi();
    aig.create_and(a, b);  // never reaches a PO
    aig.add_po(a);
    aig.add_po(logic::kConst1);
    std::vector<Finding> findings;
    lint::lint_aig(aig, "t", findings);
    EXPECT_TRUE(has_check(findings, lint::check::kAigDeadNode)) << render(findings);
    EXPECT_TRUE(has_check(findings, lint::check::kAigConstOutput)) << render(findings);
}

TEST(LutLintMutation, CleanNetworkHasNoFindings) {
    LutNetwork net(2);
    net.add_lut({{net.pi_id(0), net.pi_id(1)}, 0b1000});
    net.add_output(2 * net.lut_id(0));
    std::vector<Finding> findings;
    lint::lint_lut_network(net, "t", findings);
    EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LutLintMutation, ConstAndDeadLuts) {
    LutNetwork net(2);
    net.add_lut({{net.pi_id(0), net.pi_id(1)}, 0});       // constant 0
    net.add_lut({{net.pi_id(0), net.pi_id(1)}, 0b1110});  // dead (no output)
    net.add_output(2 * net.lut_id(0));
    std::vector<Finding> findings;
    lint::lint_lut_network(net, "t", findings);
    EXPECT_TRUE(has_check(findings, lint::check::kLutConst)) << render(findings);
    EXPECT_TRUE(has_check(findings, lint::check::kLutDead)) << render(findings);
}

TEST(LutLintMutation, DuplicateLuts) {
    LutNetwork net(2);
    const auto l0 = net.add_lut({{net.pi_id(0), net.pi_id(1)}, 0b1000});
    const auto l1 = net.add_lut({{net.pi_id(0), net.pi_id(1)}, 0b1000});
    net.add_lut({{l0, l1}, 0b1110});
    net.add_output(2 * net.lut_id(2));
    std::vector<Finding> findings;
    lint::lint_lut_network(net, "t", findings);
    EXPECT_TRUE(has_check(findings, lint::check::kLutDuplicate)) << render(findings);
}

// ---------------------------------------------------------------------------
// Ternary engine
// ---------------------------------------------------------------------------

TEST(Ternary, AndMasksXWithDefiniteZero) {
    const TernaryWord x = ternary_x();
    const TernaryWord zero = ternary_const(0);
    const TernaryWord ones = ternary_const(~std::uint64_t(0));
    EXPECT_EQ(ternary_and(x, zero), zero);           // 0 & X = 0
    EXPECT_EQ(ternary_and(x, ones), x);              // 1 & X = X
    EXPECT_EQ(ternary_and(x, x), x);                 // X & X = X
    EXPECT_EQ(ternary_and(ones, ones), ones);        // 1 & 1 = 1
    EXPECT_EQ(ternary_not(x), x);                    // ~X = X
    EXPECT_EQ(ternary_not(zero), ones);              // ~0 = 1
}

TEST(Ternary, SimulateAigMasksThroughAnds) {
    Aig aig;
    const auto a = aig.create_pi();
    const auto b = aig.create_pi();
    aig.add_po(aig.create_and(a, b));
    // b = definite 0 on even lanes, 1 on odd; a = all X.  The AND is
    // definite 0 wherever b is 0, X wherever b is 1.
    const std::uint64_t odd = 0xaaaaaaaaaaaaaaaaull;
    const auto pos = lint::ternary_simulate(aig, {ternary_x(), ternary_const(odd)});
    ASSERT_EQ(pos.size(), 1u);
    EXPECT_EQ(pos[0].unknown, odd);
    EXPECT_EQ(pos[0].value, 0u);
}

TEST(Ternary, LutEvaluationMasksThroughTruthTable) {
    // out = input0, input1 ignored by the table: a per-gate abstraction
    // would report X when input1 is X, full-table completion stays definite.
    LutNetwork net(2);
    net.add_lut({{net.pi_id(0), net.pi_id(1)}, 0b1010});
    net.add_output(2 * net.lut_id(0));
    const std::uint64_t pat = 0x0123456789abcdefull;
    const auto out = lint::ternary_evaluate(net, {ternary_const(pat), ternary_x()});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].unknown, 0u);
    EXPECT_EQ(out[0].value, pat);
}

TEST(Ternary, PoSupport) {
    Aig aig;
    const auto a = aig.create_pi();
    aig.create_pi();  // b: declared but outside the cone
    const auto c = aig.create_pi();
    aig.add_po(aig.create_and(a, c));
    const auto support = lint::po_support(aig, 0);
    ASSERT_EQ(support.size(), 3u);
    EXPECT_TRUE(support[0]);
    EXPECT_FALSE(support[1]);
    EXPECT_TRUE(support[2]);
}

TEST(Ternary, XCheckProvesStructuralInsensitivity) {
    Aig aig;
    const auto a = aig.create_pi();
    const auto b = aig.create_pi();
    aig.create_pi();  // c: the don't-care, not in the cone
    aig.add_po(aig.create_and(a, b));
    const auto r = check_x_insensitive(aig, 0, {true, true, false}, 2, 99);
    EXPECT_TRUE(r.proved_structural);
    EXPECT_TRUE(r.proved());
    EXPECT_FALSE(r.failed());
}

TEST(Ternary, XCheckDetectsObservableDontCare) {
    Aig aig;
    const auto a = aig.create_pi();
    const auto c = aig.create_pi();
    aig.add_po(aig.create_and(a, c));
    // c is declared don't-care but drives the output whenever a = 1.
    const auto r = check_x_insensitive(aig, 0, {true, false}, 2, 99);
    EXPECT_TRUE(r.failed());
    EXPECT_GT(r.x_lanes, 0u);
    EXPECT_FALSE(r.proved());
}

TEST(Ternary, XCheckProvesExhaustivelyWhenDontCareIsMasked) {
    // po = b & (c & ~b): c is in the cone, but for every value of b the
    // X from c is killed by a definite 0 - exhaustive sweep proves it,
    // the structural check cannot.
    Aig aig;
    const auto b = aig.create_pi();
    const auto c = aig.create_pi();
    const auto n1 = aig.create_and(c, logic::lit_not(b));
    aig.add_po(aig.create_and(b, n1));
    const auto r = check_x_insensitive(aig, 0, {true, false}, 2, 99);
    EXPECT_FALSE(r.proved_structural);
    EXPECT_TRUE(r.proved_exhaustive);
    EXPECT_FALSE(r.failed());
    EXPECT_GT(r.lanes_checked, 0u);
}

/// The X-check as specified, sweeping with ternary_simulate over the whole
/// AIG: the oracle for check_x_insensitive, which simulates only the PO's
/// cone.
lint::XCheckResult whole_aig_x_check(const Aig& aig, std::size_t po,
                                     const std::vector<bool>& care,
                                     std::size_t random_rounds, std::uint64_t seed) {
    lint::XCheckResult r;
    const auto support = lint::po_support(aig, po);
    std::vector<std::size_t> cared;
    r.proved_structural = true;
    for (std::size_t i = 0; i < care.size(); ++i) {
        if (support[i] && !care[i]) r.proved_structural = false;
        if (care[i]) cared.push_back(i);
    }
    const bool exhaustive = cared.size() <= 12;
    util::Xoshiro256ss rng(seed);
    const std::size_t sweeps =
        exhaustive ? ((std::size_t(1) << cared.size()) + 63) / 64 : random_rounds;
    std::vector<TernaryWord> pis(aig.num_pis(), ternary_x());
    bool x_seen = false;
    for (std::size_t s = 0; s < sweeps; ++s) {
        for (std::size_t j = 0; j < cared.size(); ++j) {
            static constexpr std::uint64_t kLanePatterns[6] = {
                0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
                0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull};
            std::uint64_t pattern;
            if (!exhaustive)
                pattern = rng();
            else if (j < 6)
                pattern = kLanePatterns[j];
            else
                pattern = (s >> (j - 6)) & 1 ? ~std::uint64_t(0) : 0;
            pis[cared[j]] = ternary_const(pattern);
        }
        std::uint64_t valid = ~std::uint64_t(0);
        if (exhaustive && cared.size() < 6)
            valid = (std::uint64_t(1) << (std::uint64_t(1) << cared.size())) - 1;
        const std::uint64_t x = lint::ternary_simulate(aig, pis)[po].unknown & valid;
        r.lanes_checked += std::size_t(std::popcount(valid));
        r.x_lanes += std::size_t(std::popcount(x));
        x_seen = x_seen || x != 0;
    }
    r.proved_exhaustive = exhaustive && !x_seen;
    return r;
}

TEST(Ternary, ConeLocalXCheckMatchesWholeAigSimulation) {
    util::Xoshiro256ss rng(2024);
    std::size_t exhaustive = 0, random = 0, failed = 0, proved = 0;
    std::size_t structural_exhaustive = 0, structural_random = 0;
    for (int trial = 0; trial < 400; ++trial) {
        // Gates over earlier literals (constants and PIs included), so
        // cones overlap and some POs sit directly on a PI or a constant.
        Aig aig(/*strash=*/trial % 2 == 0);
        std::vector<logic::Lit> lits{logic::kConst0};
        const std::size_t n_pis = 1 + rng.below(20);
        for (std::size_t i = 0; i < n_pis; ++i) lits.push_back(aig.create_pi());
        const auto pick = [&] {
            const logic::Lit l = lits[rng.below(lits.size())];
            return rng() & 1 ? logic::lit_not(l) : l;
        };
        const std::size_t n_ands = rng.below(60);
        for (std::size_t i = 0; i < n_ands; ++i) lits.push_back(aig.create_and(pick(), pick()));
        for (int i = 0; i < 4; ++i) aig.add_po(pick());

        const double density = 0.3 + 0.2 * double(trial % 4);
        std::vector<bool> care(n_pis);
        for (std::size_t i = 0; i < n_pis; ++i) care[i] = rng.bernoulli(density);
        const std::size_t cared = std::size_t(std::count(care.begin(), care.end(), true));
        (cared <= 12 ? exhaustive : random)++;

        for (std::size_t po = 0; po < aig.num_pos(); ++po) {
            // The random mask, and the same mask with the PO's whole cone
            // cared: a structural proof, which check_x_insensitive returns
            // without sweeping.
            const std::uint64_t seed = rng();
            std::vector<bool> all_cared = care;
            const auto support = lint::po_support(aig, po);
            for (std::size_t i = 0; i < n_pis; ++i) all_cared[i] = care[i] || support[i];
            for (const std::vector<bool>* mask : {&care, &all_cared}) {
                const auto want = whole_aig_x_check(aig, po, *mask, 3, seed);
                const auto got = check_x_insensitive(aig, po, *mask, 3, seed);
                EXPECT_EQ(got.proved_structural, want.proved_structural) << trial << "/" << po;
                EXPECT_EQ(got.proved_exhaustive, want.proved_exhaustive) << trial << "/" << po;
                EXPECT_EQ(got.lanes_checked, want.lanes_checked) << trial << "/" << po;
                EXPECT_EQ(got.x_lanes, want.x_lanes) << trial << "/" << po;
                failed += want.failed();
                proved += want.proved();
                if (want.proved_structural)
                    (std::count(mask->begin(), mask->end(), true) <= 12 ? structural_exhaustive
                                                                         : structural_random)++;
            }
        }
    }
    // Both sweep modes and both verdicts were exercised, and structural
    // proofs in both modes.
    EXPECT_GT(exhaustive, 0u);
    EXPECT_GT(random, 0u);
    EXPECT_GT(failed, 0u);
    EXPECT_GT(proved, 0u);
    EXPECT_GT(structural_exhaustive, 0u);
    EXPECT_GT(structural_random, 0u);
}

// ---------------------------------------------------------------------------
// X-sensitivity through lint_design: a care-mask violation is caught
// ---------------------------------------------------------------------------

TEST(LintDesign, CareMaskViolationFiresXSensitive) {
    const auto m = random_model(24, 2, 4, 0.12, 5);
    const auto design = generate(m, /*strash=*/true);

    // Claim some included feature is a don't-care: the netlist (built from
    // the real model) still reads it, so its HCB output must fail the
    // X-insensitivity proof.
    model::TrainedModel lying = m;
    bool cleared = false;
    for (std::size_t c = 0; c < m.num_classes() && !cleared; ++c)
        for (std::size_t j = 0; j < m.clauses_per_class() && !cleared; ++j)
            for (std::size_t f = 0; f < m.num_features() && !cleared; ++f)
                if (lying.clause(c, j).include_pos.get(f)) {
                    lying.clause(c, j).include_pos.clear(f);
                    cleared = true;
                }
    ASSERT_TRUE(cleared) << "random model has no included feature";

    const auto honest = lint::lint_design(design, &m);
    EXPECT_FALSE(has_check(honest.findings, lint::check::kXSensitive));
    const auto report = lint::lint_design(design, &lying);
    EXPECT_TRUE(has_check(report.findings, lint::check::kXSensitive))
        << lint::format_lint_report(report);
    EXPECT_GT(report.errors() + report.warnings(), 0u);
}

/// Lint's X pass recomputed with a fresh care mask per output - the packet
/// bits the output's clause includes plus its own chain input - as
/// (outputs, structural, exhaustive, lanes) and the outputs left unproved.
struct XPassOracle {
    std::array<std::size_t, 4> stats{};
    std::vector<std::string> unproved;
};

XPassOracle x_pass_oracle(const rtl::RtlDesign& design, const model::TrainedModel& m) {
    XPassOracle x;
    for (std::size_t h = 0; h < design.hcbs.size(); ++h) {
        const auto& hcb = design.hcbs[h];
        const auto& spec = hcb.spec;
        for (std::size_t out = 0; out < hcb.aig.num_pos(); ++out) {
            std::vector<bool> care(hcb.aig.num_pis(), false);
            const std::uint32_t cid = spec.active_clauses[out];
            const auto& clause = m.clause(cid / m.clauses_per_class(), cid % m.clauses_per_class());
            for (std::size_t f = spec.lo; f < spec.hi; ++f)
                care[f - spec.lo] = clause.include_pos.get(f) || clause.include_neg.get(f);
            if (spec.has_chain_input[out]) {
                std::size_t chain_pi = spec.hi - spec.lo;
                for (std::size_t i = 0; i < out; ++i) chain_pi += spec.has_chain_input[i];
                care.at(chain_pi) = true;
            }
            const auto r = check_x_insensitive(hcb.aig, out, care, lint::kTernaryRounds,
                                               lint::kTernarySeed + h * 1315423911u);
            x.stats[0] += 1;
            x.stats[1] += r.proved_structural;
            x.stats[2] += r.proved_exhaustive;
            x.stats[3] += r.lanes_checked;
            if (!r.proved())
                x.unproved.push_back("hcb " + std::to_string(h) + " aig / po " +
                                     std::to_string(out) + " (clause " + std::to_string(cid) + ")");
        }
    }
    return x;
}

TEST(LintDesign, XPassMatchesPerOutputCareMasks) {
    // A 6-stage chain (24 features over a 4-bit bus), so most outputs have
    // a chain input; the lying model leaves a third of the clauses short of
    // one include, so some outputs fail and the rest must not inherit their
    // masks.
    const auto m = random_model(24, 4, 16, 0.2, 11);
    const auto design = generate(m, /*strash=*/true, /*bus_width=*/4);
    ASSERT_GT(design.hcbs.size(), 2u);
    model::TrainedModel lying = m;
    for (std::size_t c = 0; c < m.num_classes(); ++c)
        for (std::size_t j = 0; j < m.clauses_per_class(); j += 3)
            for (std::size_t f = 0; f < m.num_features(); ++f)
                if (lying.clause(c, j).include_pos.get(f)) {
                    lying.clause(c, j).include_pos.clear(f);
                    break;
                }
    for (const auto* model : {&m, &std::as_const(lying)}) {
        const auto want = x_pass_oracle(design, *model);
        const auto report = lint::lint_design(design, model);
        const auto& st = report.stats;
        EXPECT_EQ((std::array<std::size_t, 4>{st.x_outputs_checked, st.x_proved_structural,
                                              st.x_proved_exhaustive, st.x_lanes_simulated}),
                  want.stats);
        std::vector<std::string> flagged;
        for (const auto& f : report.findings)
            if (f.check == lint::check::kXSensitive) flagged.push_back(f.where + " / " + f.object);
        EXPECT_EQ(flagged, want.unproved);
        if (model == &lying) EXPECT_FALSE(flagged.empty());
    }
}

/// Where a finding sits in the order lint_design promises: the linted
/// modules in scope order (seq, class_sum, argmax, controller, top), then
/// per HCB its AIG findings, its LUT findings and its X findings.
std::size_t finding_rank(const Finding& f, const rtl::RtlDesign& design) {
    std::vector<std::string> modules;
    for (const auto& mod : design.hcb_seq) modules.push_back("module " + mod.name);
    for (const auto* mod : {&design.class_sum, &design.argmax, &design.controller, &design.top})
        modules.push_back("module " + mod->name);
    const auto it = std::find(modules.begin(), modules.end(), f.where);
    if (it != modules.end()) return std::size_t(it - modules.begin());
    std::size_t hcb = 0;
    char part[8] = {};
    EXPECT_EQ(std::sscanf(f.where.c_str(), "hcb %zu %7s", &hcb, part), 2) << f.where;
    const std::size_t sub = std::string(part) == "luts" ? 1
                            : f.check == lint::check::kXSensitive ? 2
                                                                  : 0;
    return modules.size() + 3 * hcb + sub;
}

TEST(LintDesign, PooledLintEqualsSerialLintInOrder) {
    // The designs of CareMaskViolationFiresXSensitive: three HCBs, with the
    // honest model, the lying one (X findings), and the lying one over a
    // design with defects planted in a middle HCB wrapper and in the top.
    const auto m = random_model(24, 2, 4, 0.12, 5);
    const auto design = generate(m, /*strash=*/true);
    ASSERT_EQ(design.hcbs.size(), 3u);
    model::TrainedModel lying = m;
    for (std::size_t c = 0; c < m.num_classes(); ++c)
        for (std::size_t j = 0; j < m.clauses_per_class(); j += 2)
            for (std::size_t f = 0; f < m.num_features(); ++f)
                if (lying.clause(c, j).include_pos.get(f)) {
                    lying.clause(c, j).include_pos.clear(f);
                    break;
                }
    rtl::RtlDesign planted = design;
    planted.hcb_seq[1].assigns.push_back({rtl::ref("ghost_out"), rtl::ref("ghost_in")});
    planted.top.nets.push_back({"never_used", 1, false, false, ""});

    const struct {
        const rtl::RtlDesign* design;
        const model::TrainedModel* model;
    } cases[] = {{&design, &m}, {&design, &lying}, {&planted, &lying}};
    for (const auto& c : cases) {
        const auto serial = lint::lint_design(*c.design, c.model);
        const std::string want = lint::lint_report_to_json(serial).dump();
        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
            train::WorkerPool pool(threads);
            EXPECT_EQ(lint::lint_report_to_json(lint::lint_design(*c.design, c.model, &pool))
                          .dump(),
                      want)
                << threads << " workers";
        }
        std::vector<std::size_t> ranks;
        for (const auto& f : serial.findings) ranks.push_back(finding_rank(f, *c.design));
        EXPECT_TRUE(std::is_sorted(ranks.begin(), ranks.end())) << render(serial.findings);
        // Stats: counts summed over the jobs, maxima taken over them.
        const auto& st = serial.stats;
        EXPECT_EQ(st.modules.modules, design.hcbs.size() + 4);
        EXPECT_EQ(st.aig.aigs, design.hcbs.size());
        std::size_t ands = 0, depth = 0;
        for (const auto& hcb : design.hcbs) {
            ands += hcb.aig.num_ands();
            depth = std::max<std::size_t>(depth, hcb.aig.depth());
        }
        EXPECT_EQ(st.aig.ands, ands);
        EXPECT_EQ(st.aig.max_depth, depth);
        EXPECT_EQ(st.luts.networks, design.hcbs.size());
    }
    // The cases have findings to order: X findings in more than one HCB,
    // and module findings before them.
    const auto report = lint::lint_design(planted, &lying);
    std::set<std::string> x_hcbs;
    for (const auto& f : report.findings)
        if (f.check == lint::check::kXSensitive) x_hcbs.insert(f.where);
    EXPECT_GT(x_hcbs.size(), 1u) << render(report.findings);
    EXPECT_TRUE(has_check(report.findings, lint::check::kUnknownNet)) << render(report.findings);
    EXPECT_TRUE(has_check(report.findings, lint::check::kUnused)) << render(report.findings);
}

TEST(LintDesign, CombInstancesAreCheckedAgainstTheirPorts) {
    // The comb modules are text, but their shells stay in the module scope:
    // each hcb_<k> instantiates a module with real ports.
    const auto m = random_model(24, 2, 4, 0.12, 5);
    const auto design = generate(m, /*strash=*/true);
    const auto clean = lint::lint_design(design, &m);
    EXPECT_FALSE(has_check(clean.findings, lint::check::kUnknownModule))
        << render(clean.findings);

    // A connection to a port the comb module does not have is an error.
    rtl::RtlDesign bogus = design;
    bogus.hcb_seq[1].instances.front().connections.emplace_back("bogus", rtl::ref("packet"));
    const auto unknown = lint::lint_design(bogus, &m);
    EXPECT_TRUE(std::any_of(unknown.findings.begin(), unknown.findings.end(), [](const auto& f) {
        return f.check == lint::check::kUnknownModule && f.severity == Severity::kError &&
               f.where == "module hcb_1" && f.object == "u_comb";
    })) << render(unknown.findings);

    // A connection of the wrong width is a width mismatch.
    rtl::RtlDesign narrow = design;
    for (auto& [port, conn] : narrow.hcb_seq[1].instances.front().connections)
        if (port == "packet") conn = rtl::slice("packet", 2, 0);
    const auto mismatch = lint::lint_design(narrow, &m);
    EXPECT_TRUE(std::any_of(mismatch.findings.begin(), mismatch.findings.end(),
                            [](const auto& f) {
                                return f.check == lint::check::kWidthMismatch &&
                                       f.where == "module hcb_1" &&
                                       f.object == "u_comb.packet";
                            }))
        << render(mismatch.findings);

    // A packet that no clause includes leaves hcb_1_comb without outputs.
    // Module lint used to report "info [net-unused] module hcb_1_comb /
    // packet: input port never read" first; the comb module is no longer
    // linted as a module, so that finding is gone, and AIG lint counts the
    // unread packet bits instead.
    model::TrainedModel holes(24, 2, 2);
    holes.clause(0, 0).include_pos.set(1);
    holes.clause(0, 1).include_neg.set(17);
    holes.clause(1, 0).include_pos.set(3);
    holes.clause(1, 0).include_pos.set(20);
    const auto gap = generate(holes, /*strash=*/true);
    ASSERT_EQ(gap.hcbs.size(), 3u);
    ASSERT_EQ(gap.hcbs[1].aig.num_pos(), 0u);
    const auto report = lint::lint_design(gap, &holes);
    EXPECT_EQ(render(report.findings),
              "info [net-unused] module hcb_1 / clk: input port never read\n"
              "info [net-unused] module hcb_1 / en: input port never read\n"
              "info [net-unused] module matador_top / s_axis_tlast: input port never read\n");
    // HCB 0 reads packet bits 1 and 3, HCB 2 bits 1 and 4 (and its chain
    // input): 12 unread in the stages with outputs, plus all 8 of HCB 1.
    EXPECT_EQ(report.stats.aig.unused_pis, 12u + 8u);
    EXPECT_EQ(report.stats.modules.modules, gap.hcbs.size() + 4);
}

// ---------------------------------------------------------------------------
// Report plumbing: severities, JSON, formatting, artifact cache
// ---------------------------------------------------------------------------

TEST(LintReportTest, SeverityNamesRoundTrip) {
    for (const auto s : {Severity::kInfo, Severity::kWarning, Severity::kError})
        EXPECT_EQ(lint::severity_from_name(lint::severity_name(s)), s);
    EXPECT_FALSE(lint::severity_from_name("fatal").has_value());
}

TEST(LintReportTest, CleanThresholds) {
    LintReport r;
    r.findings.push_back({lint::check::kUnused, Severity::kWarning, "m", "w", ""});
    r.findings.push_back({lint::check::kLutDuplicate, Severity::kInfo, "m", "l", ""});
    EXPECT_EQ(r.count(Severity::kWarning), 1u);
    EXPECT_EQ(r.errors(), 0u);
    EXPECT_TRUE(r.clean(Severity::kError));
    EXPECT_FALSE(r.clean(Severity::kWarning));
    EXPECT_FALSE(r.clean(Severity::kInfo));
    EXPECT_EQ(r.summary(), "0 errors, 1 warning, 1 info");
}

TEST(LintReportTest, JsonRoundTrip) {
    const auto m = random_model(20, 2, 4, 0.1, 17);
    auto report = lint::lint_design(generate(m, true), &m);
    // Make sure at least one finding crosses the wire too.
    report.findings.push_back(
        {lint::check::kUnused, Severity::kWarning, "module x", "n", "test"});
    const auto j = lint::lint_report_to_json(report);
    const auto back = lint::lint_report_from_json(
        util::Json::parse(j.dump(2)));
    EXPECT_EQ(back.findings, report.findings);
    EXPECT_EQ(back.stats.modules.nets, report.stats.modules.nets);
    EXPECT_EQ(back.stats.aig.ands, report.stats.aig.ands);
    EXPECT_EQ(back.stats.luts.luts, report.stats.luts.luts);
    EXPECT_EQ(back.stats.x_outputs_checked, report.stats.x_outputs_checked);
    EXPECT_EQ(back.stats.x_lanes_simulated, report.stats.x_lanes_simulated);
}

TEST(LintReportTest, JsonRejectsFutureVersions) {
    auto j = lint::lint_report_to_json(LintReport{});
    j.set("version", util::Json(2.0));
    EXPECT_THROW(lint::lint_report_from_json(j), std::runtime_error);

    // A negative count is refused, not wrapped to 2^64 - 1.
    auto bad = lint::lint_report_to_json(LintReport{});
    util::Json stats = bad.at("stats");
    util::Json modules = stats.at("modules");
    modules.set("modules", util::Json(-1.0));
    stats.set("modules", modules);
    bad.set("stats", stats);
    EXPECT_THROW(lint::lint_report_from_json(bad), std::runtime_error);
}

TEST(LintArtifactTest, ReportPersistsThroughTheDiskTier) {
    const auto dir = fs::temp_directory_path() / "matador-lint-cache-test";
    fs::remove_all(dir);
    fs::create_directories(dir);

    const auto m = random_model(18, 2, 4, 0.1, 23);
    const auto fresh = [&] {
        return core::LintArtifact{lint::lint_design(generate(m, true), &m)};
    };
    const std::uint64_t key = 0x1234abcd5678ef01ull;

    core::ArtifactTier tier = core::ArtifactTier::kMemory;
    core::ArtifactStore store(dir.string());
    const auto first = store.get_or_compute_lint(key, fresh, &tier);
    EXPECT_EQ(tier, core::ArtifactTier::kNone);
    store.get_or_compute_lint(key, fresh, &tier);
    EXPECT_EQ(tier, core::ArtifactTier::kMemory);
    EXPECT_EQ(store.stats().lint.misses, 1u);
    EXPECT_EQ(store.stats().lint.memory_hits, 1u);

    // A new store instance ("process restart") rehydrates from disk.
    core::ArtifactStore again(dir.string());
    const auto second = again.get_or_compute_lint(key, fresh, &tier);
    EXPECT_EQ(tier, core::ArtifactTier::kDisk);
    EXPECT_EQ(second.report.findings, first.report.findings);
    EXPECT_EQ(second.report.summary(), first.report.summary());
    EXPECT_EQ(second.report.stats.x_outputs_checked,
              first.report.stats.x_outputs_checked);

    bool saw_lint_entry = false;
    for (const auto& entry : again.list_disk())
        if (entry.stage == "lint") saw_lint_entry = true;
    EXPECT_TRUE(saw_lint_entry);

    fs::remove_all(dir);
}

}  // namespace
