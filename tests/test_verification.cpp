#include "rtl/verification.hpp"

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "logic/aiger.hpp"
#include "model/architecture.hpp"
#include "rtl/verilog_parser.hpp"
#include "tm/tsetlin_machine.hpp"
#include "train/parallel_trainer.hpp"
#include "train/worker_pool.hpp"

namespace {

using namespace matador::rtl;
using matador::model::ArchOptions;
using matador::model::TrainedModel;
using matador::model::derive_architecture;

TrainedModel trained_small_model() {
    const auto ds = matador::data::make_noisy_xor(1200, 10, 0.03, 41);
    matador::tm::TmConfig cfg;
    cfg.clauses_per_class = 10;
    cfg.threshold = 8;
    cfg.specificity = 3.5;
    cfg.seed = 17;
    matador::tm::TsetlinMachine tm(cfg, ds.num_features, 2);
    matador::train::ParallelTrainer({.epochs = 6}).fit(tm, ds);
    return tm.export_model();
}

TEST(Verification, LadderPassesOnGeneratedDesign) {
    const TrainedModel m = trained_small_model();
    ArchOptions o;
    o.bus_width = 8;  // several HCBs even for 12 features
    const auto design = generate_rtl(m, derive_architecture(m, o));
    const auto rep = verify_design(design, m, 16, 99);
    EXPECT_TRUE(rep.expressions_match_model) << rep.first_failure;
    EXPECT_TRUE(rep.hcb_aigs_match_expressions) << rep.first_failure;
    EXPECT_TRUE(rep.rtl_matches_aigs) << rep.first_failure;
    EXPECT_TRUE(rep.ok());
    EXPECT_EQ(rep.hcbs_checked, design.hcbs.size());
    EXPECT_TRUE(rep.first_failure.empty());
}

TEST(Verification, LadderPassesWithoutStrash) {
    const TrainedModel m = trained_small_model();
    ArchOptions o;
    o.bus_width = 8;
    const auto design = generate_rtl(m, derive_architecture(m, o), false);
    const auto rep = verify_design(design, m, 8, 7);
    EXPECT_TRUE(rep.ok()) << rep.first_failure;
}

TEST(Verification, LadderDetectsModelDesignDivergence) {
    // Generate the design from the trained model, then flip one include in
    // the *model*: the chain-vs-expressions level must flag the divergence
    // (this is what the auto-debug flow exists to catch).
    const TrainedModel m = trained_small_model();
    ArchOptions o;
    o.bus_width = 8;
    const auto design = generate_rtl(m, derive_architecture(m, o));

    auto m2 = m;
    bool flipped = false;
    for (std::size_t c = 0; c < m2.num_classes() && !flipped; ++c)
        for (std::size_t j = 0; j < m2.clauses_per_class() && !flipped; ++j)
            if (!m2.clause(c, j).empty()) {
                const std::size_t f = m2.clause(c, j).include_pos.any()
                                          ? m2.clause(c, j).include_pos.find_first()
                                          : m2.clause(c, j).include_neg.find_first();
                m2.clause(c, j).include_pos.set(f, !m2.clause(c, j).include_pos.get(f));
                flipped = true;
            }
    ASSERT_TRUE(flipped);
    const auto rep = verify_design(design, m2, 16, 3);
    EXPECT_FALSE(rep.ok());
    EXPECT_FALSE(rep.first_failure.empty());
}

TEST(Verification, LevelThreeRoundTripIsByteIdentical) {
    // Level 3 parses each comb module the design carries under the
    // design's own strash flag.  For a generated design every HCB comes
    // back as the generator's AIG, byte for byte in AIGER, so level 3 is a
    // proof rather than a sample - with strash and without (DON'T_TOUCH).
    const TrainedModel m = trained_small_model();
    ArchOptions o;
    o.bus_width = 8;
    for (const bool strash : {true, false}) {
        const auto design = generate_rtl(m, derive_architecture(m, o), strash);
        ASSERT_EQ(design.hcb_comb.size(), design.hcbs.size());
        for (std::size_t i = 0; i < design.hcbs.size(); ++i) {
            const auto& hcb = design.hcbs[i];
            EXPECT_EQ(hcb.aig.strash_enabled(), strash);
            const auto parsed = parse_structural_verilog(design.hcb_comb[i], strash);
            EXPECT_EQ(matador::logic::write_aiger_binary(parsed.aig),
                      matador::logic::write_aiger_binary(hcb.aig))
                << "strash " << strash << ", hcb " << i;
        }
        const auto rep = verify_design(design, m, 8, 7);
        EXPECT_TRUE(rep.ok()) << rep.first_failure;
        EXPECT_EQ(rep.hcbs_checked, design.hcbs.size());
    }
}

TEST(Verification, PooledLevelThreeReportsTheFirstFailureInHcbOrder) {
    // Corrupt the comb module text of a middle HCB and of the last one
    // (each drives its last output inverted).  Level 3 must stop at the
    // middle one as a serial walk does: the same hcbs_checked and
    // first_failure with any pool, however the workers finish.
    const TrainedModel m = trained_small_model();
    ArchOptions o;
    o.bus_width = 4;
    auto design = generate_rtl(m, derive_architecture(m, o));
    ASSERT_GE(design.hcbs.size(), 3u);
    const std::size_t middle = design.hcbs.size() / 2;
    for (const std::size_t i : {middle, design.hcbs.size() - 1}) {
        // `  assign pc[j] = <rhs>;` becomes `  assign pc[j] = ~(<rhs>);`.
        std::string& text = design.hcb_comb[i];
        const std::size_t last = text.rfind("  assign pc[");
        ASSERT_NE(last, std::string::npos) << text;
        const std::size_t rhs = text.find(" = ", last) + 3;
        text.insert(text.find(";\n", rhs), ")");
        text.insert(rhs, "~(");
    }
    const auto serial = verify_design(design, m, 8, 7);
    EXPECT_FALSE(serial.rtl_matches_aigs);
    EXPECT_EQ(serial.hcbs_checked, middle);
    EXPECT_NE(serial.first_failure.find("hcb_" + std::to_string(middle) + "_comb"),
              std::string::npos)
        << serial.first_failure;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        matador::train::WorkerPool pool(threads);
        const auto pooled = verify_design(design, m, 8, 7, &pool);
        EXPECT_FALSE(pooled.rtl_matches_aigs) << threads << " workers";
        EXPECT_EQ(pooled.hcbs_checked, serial.hcbs_checked) << threads << " workers";
        EXPECT_EQ(pooled.first_failure, serial.first_failure) << threads << " workers";
        EXPECT_EQ(pooled.vectors_checked, serial.vectors_checked) << threads << " workers";
    }
}

TEST(Verification, CosimHcbModuleRoundTrips) {
    const TrainedModel m = trained_small_model();
    const auto hcbs = build_hcbs(m, matador::model::PacketPlan(m.num_features(), 8));
    for (std::size_t k = 0; k < hcbs.size(); ++k) {
        std::string err;
        EXPECT_TRUE(check_hcb_module_text(hcbs[k], emit_hcb_comb(hcbs[k], k), 8, 5, &err))
            << err;
    }
}

}  // namespace
