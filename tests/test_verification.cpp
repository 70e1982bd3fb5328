#include "rtl/verification.hpp"

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "model/architecture.hpp"
#include "tm/tsetlin_machine.hpp"
#include "train/parallel_trainer.hpp"

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

TEST(Verification, CosimHcbModuleRoundTrips) {
    const TrainedModel m = trained_small_model();
    const auto hcbs = build_hcbs(m, matador::model::PacketPlan(m.num_features(), 8));
    for (const auto& hcb : hcbs) {
        std::string err;
        EXPECT_TRUE(cosim_hcb_module(hcb, 8, 5, &err)) << err;
    }
}

}  // namespace
