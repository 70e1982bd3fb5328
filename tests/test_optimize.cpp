#include "model/optimize.hpp"

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "tm/tsetlin_machine.hpp"
#include "train/parallel_trainer.hpp"
#include "util/rng.hpp"

namespace {

using namespace matador::model;
using matador::util::BitVector;
using matador::util::Xoshiro256ss;

TrainedModel model_with_structure() {
    TrainedModel m(32, 2, 6);
    // Identical clause three times in class 0: two +, one - => weight +1.
    for (std::size_t j : {0u, 2u, 1u}) m.clause(0, j).include_pos.set(5);
    // Same mask also in class 1 with polarity + (j=0).
    m.clause(1, 0).include_pos.set(5);
    // A +/- pair in class 1 that cancels exactly.
    m.clause(1, 2).include_neg.set(9);
    m.clause(1, 3).include_neg.set(9);
    // A unique clause.
    m.clause(0, 4).include_pos.set(1);
    m.clause(0, 4).include_neg.set(2);
    return m;
}

TEST(Dedup, MergesAndCancels) {
    DedupStats st;
    const auto wm = deduplicate_clauses(model_with_structure(), &st);
    EXPECT_EQ(st.original_clauses, 12u);
    EXPECT_EQ(st.live_clauses, 7u);
    // Groups: {x5} (4 members), {~x9} (cancelled), {x1&~x2}.
    EXPECT_EQ(st.unique_clauses, 2u);
    EXPECT_EQ(st.cancelled_clauses, 1u);
    EXPECT_EQ(wm.num_clauses(), 2u);
    EXPECT_GT(st.reduction(), 0.5);
}

TEST(Dedup, WeightsAreVoteCounts) {
    const auto wm = deduplicate_clauses(model_with_structure());
    const WeightedClause* x5 = nullptr;
    for (const auto& c : wm.clauses())
        if (c.include_pos.get(5)) x5 = &c;
    ASSERT_NE(x5, nullptr);
    // class 0: +1 +1 -1 = +1; class 1: +1.
    EXPECT_EQ(x5->class_weights[0], 1);
    EXPECT_EQ(x5->class_weights[1], 1);
}

TEST(Dedup, ClassSumsExactlyPreserved) {
    const auto m = model_with_structure();
    const auto wm = deduplicate_clauses(m);
    Xoshiro256ss rng(3);
    for (int trial = 0; trial < 200; ++trial) {
        BitVector x(32);
        x.set_word(0, rng());
        EXPECT_EQ(wm.class_sums(x), m.class_sums(x));
        EXPECT_EQ(wm.predict(x), m.predict(x));
    }
}

TEST(Dedup, TrainedModelEquivalence) {
    // The load-bearing property on a real trained model.
    const auto ds = matador::data::make_noisy_xor(1500, 8, 0.03, 7);
    matador::tm::TmConfig cfg;
    cfg.clauses_per_class = 24;
    cfg.threshold = 10;
    cfg.seed = 5;
    matador::tm::TsetlinMachine machine(cfg, ds.num_features, 2);
    matador::train::ParallelTrainer({.epochs = 8}).fit(machine, ds);
    const auto m = machine.export_model();

    DedupStats st;
    const auto wm = deduplicate_clauses(m, &st);
    EXPECT_LE(st.unique_clauses, st.live_clauses);
    for (std::size_t i = 0; i < 200; ++i) {
        EXPECT_EQ(wm.class_sums(ds.examples[i]), m.class_sums(ds.examples[i]));
    }
}

TEST(Dedup, EmptyModel) {
    DedupStats st;
    const auto wm = deduplicate_clauses(TrainedModel(16, 2, 4), &st);
    EXPECT_EQ(wm.num_clauses(), 0u);
    EXPECT_EQ(st.live_clauses, 0u);
    EXPECT_DOUBLE_EQ(st.reduction(), 0.0);
}

TEST(WeightedModel, MagnitudeHelpers) {
    const auto wm = deduplicate_clauses(model_with_structure());
    EXPECT_EQ(wm.total_weight_magnitude(), 3u);  // +1,+1 on x5; +1 on unique
    EXPECT_EQ(wm.max_weight_magnitude(), 1);
}

TEST(WeightedModel, AddClauseValidation) {
    WeightedModel wm(8, 2);
    WeightedClause c;
    c.include_pos = BitVector(8);
    c.include_neg = BitVector(8);
    c.class_weights = {1};  // wrong size
    EXPECT_THROW(wm.add_clause(c), std::invalid_argument);
    c.class_weights = {1, -1};
    c.include_pos = BitVector(4);  // wrong mask size
    EXPECT_THROW(wm.add_clause(c), std::invalid_argument);
}

TEST(WeightedModel, ClassSumLutEstimate) {
    const auto wm = deduplicate_clauses(model_with_structure());
    const auto luts = estimate_weighted_class_sum_luts(wm, 8);
    EXPECT_GT(luts, 0u);
    // Bounded by the unweighted estimate over the original live clauses.
    EXPECT_LT(luts, 7 * 2 + 2 * 8 + 10);
}

}  // namespace
