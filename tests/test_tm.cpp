#include "tm/tsetlin_machine.hpp"

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "train/parallel_trainer.hpp"

namespace {

using matador::data::Dataset;
using matador::data::make_iris_like;
using matador::data::make_noisy_xor;
using matador::data::train_test_split;
using matador::model::TrainedModel;
using matador::tm::FeedbackMode;
using matador::tm::TmConfig;
using matador::tm::TsetlinMachine;
using matador::train::ParallelTrainer;
using matador::util::BitVector;

TmConfig small_config(std::size_t cpc = 20) {
    TmConfig c;
    c.clauses_per_class = cpc;
    c.threshold = 10;
    c.specificity = 3.9;
    c.seed = 42;
    return c;
}

void fit(TsetlinMachine& tm, const Dataset& ds, std::size_t epochs) {
    ParallelTrainer({.epochs = epochs}).fit(tm, ds);
}

/// A dataset of one example, to drive the feedback kernels on one input.
Dataset single_example(const BitVector& x, std::uint32_t label) {
    Dataset ds;
    ds.num_features = x.size();
    ds.num_classes = 2;
    ds.add(x, label);
    return ds;
}

TEST(TsetlinMachine, ConstructorValidation) {
    EXPECT_THROW(TsetlinMachine(small_config(), 0, 2), std::invalid_argument);
    EXPECT_THROW(TsetlinMachine(small_config(), 8, 0), std::invalid_argument);
    TmConfig bad = small_config();
    bad.specificity = 1.0;
    EXPECT_THROW(TsetlinMachine(bad, 8, 2), std::invalid_argument);
    bad = small_config();
    bad.threshold = 0;
    EXPECT_THROW(TsetlinMachine(bad, 8, 2), std::invalid_argument);
    bad = small_config();
    bad.clauses_per_class = 0;
    EXPECT_THROW(TsetlinMachine(bad, 8, 2), std::invalid_argument);
}

TEST(TsetlinMachine, InitialStateJustBelowInclude) {
    TsetlinMachine tm(small_config(4), 8, 2);
    for (std::size_t l = 0; l < 16; ++l)
        EXPECT_EQ(tm.ta_state(0, 0, l), TsetlinMachine::kIncludeThreshold - 1);
}

TEST(TsetlinMachine, FreshMachinePredictsWithoutCrashing) {
    TsetlinMachine tm(small_config(4), 8, 3);
    const auto sums = tm.class_sums(BitVector(8));
    ASSERT_EQ(sums.size(), 3u);
    // No automaton included yet: every clause votes 0 under inference.
    EXPECT_EQ(sums[0], 0);
    EXPECT_EQ(tm.predict(BitVector(8)), 0u);
}

TEST(TsetlinMachine, LearnsNoisyXor) {
    const Dataset ds = make_noisy_xor(3000, 4, 0.02, 7);
    const auto split = train_test_split(ds, 0.8, 3);
    TsetlinMachine tm(small_config(20), ds.num_features, 2);
    fit(tm, split.train, 15);
    EXPECT_GT(tm.evaluate(split.test), 0.93)
        << "TM failed to learn the XOR structure";
}

TEST(TsetlinMachine, LearnsIrisLike) {
    const Dataset ds = make_iris_like(120, 4, 11);
    const auto split = train_test_split(ds, 0.8, 5);
    TsetlinMachine tm(small_config(30), ds.num_features, 3);
    fit(tm, split.train, 15);
    EXPECT_GT(tm.evaluate(split.test), 0.85);
}

TEST(TsetlinMachine, ExactFeedbackModeAlsoLearns) {
    const Dataset ds = make_noisy_xor(2000, 2, 0.02, 9);
    const auto split = train_test_split(ds, 0.8, 3);
    TmConfig cfg = small_config(16);
    cfg.feedback = FeedbackMode::kExact;
    TsetlinMachine tm(cfg, ds.num_features, 2);
    fit(tm, split.train, 12);
    EXPECT_GT(tm.evaluate(split.test), 0.9);
}

TEST(TsetlinMachine, TrainingIsDeterministicForSeed) {
    const Dataset ds = make_noisy_xor(500, 2, 0.05, 13);
    TsetlinMachine a(small_config(8), ds.num_features, 2);
    TsetlinMachine b(small_config(8), ds.num_features, 2);
    fit(a, ds, 3);
    fit(b, ds, 3);
    EXPECT_EQ(a.export_model(), b.export_model());
}

TEST(TsetlinMachine, TaStatesStayInRange) {
    const Dataset ds = make_noisy_xor(1000, 2, 0.1, 17);
    TsetlinMachine tm(small_config(8), ds.num_features, 2);
    fit(tm, ds, 5);
    for (std::size_t c = 0; c < 2; ++c)
        for (std::size_t j = 0; j < 8; ++j)
            for (std::size_t l = 0; l < 2 * ds.num_features; ++l)
                EXPECT_LT(tm.ta_state(c, j, l), 256u);
}

TEST(TsetlinMachine, ExportModelShape) {
    TsetlinMachine tm(small_config(6), 70, 3);  // 70 features straddles a word
    const TrainedModel m = tm.export_model();
    EXPECT_EQ(m.num_features(), 70u);
    EXPECT_EQ(m.num_classes(), 3u);
    EXPECT_EQ(m.clauses_per_class(), 6u);
    EXPECT_EQ(m.total_includes(), 0u);  // untrained: nothing included
}

TEST(TsetlinMachine, ExportedModelMatchesMachinePredictions) {
    const Dataset ds = make_noisy_xor(1500, 6, 0.05, 19);
    TsetlinMachine tm(small_config(16), ds.num_features, 2);
    fit(tm, ds, 8);
    const TrainedModel m = tm.export_model();
    for (std::size_t i = 0; i < 100; ++i) {
        EXPECT_EQ(m.class_sums(ds.examples[i]), tm.class_sums(ds.examples[i]));
        EXPECT_EQ(m.predict(ds.examples[i]), tm.predict(ds.examples[i]));
    }
}

TEST(TsetlinMachine, ImportExportRoundTrip) {
    const Dataset ds = make_noisy_xor(800, 4, 0.05, 23);
    TsetlinMachine tm(small_config(10), ds.num_features, 2);
    fit(tm, ds, 5);
    const TrainedModel m = tm.export_model();

    TsetlinMachine fresh(small_config(10), ds.num_features, 2);
    fresh.import_model(m);
    EXPECT_EQ(fresh.export_model(), m);
    // Imported machine classifies like the model.
    for (std::size_t i = 0; i < 50; ++i)
        EXPECT_EQ(fresh.predict(ds.examples[i]), m.predict(ds.examples[i]));
}

TEST(TsetlinMachine, ImportRejectsShapeMismatch) {
    TsetlinMachine tm(small_config(4), 16, 2);
    EXPECT_THROW(tm.import_model(TrainedModel(16, 3, 4)), std::invalid_argument);
    EXPECT_THROW(tm.import_model(TrainedModel(8, 2, 4)), std::invalid_argument);
}

TEST(TsetlinMachine, TrainedModelIsSparse) {
    const Dataset ds = make_noisy_xor(2000, 10, 0.02, 29);
    TsetlinMachine tm(small_config(20), ds.num_features, 2);
    fit(tm, ds, 10);
    const TrainedModel m = tm.export_model();
    // The Fig. 3 claim: include density stays low.
    EXPECT_LT(m.include_density(), 0.35);
    EXPECT_GT(m.total_includes(), 0u);
}

TEST(TsetlinMachine, FeatureMismatchThrows) {
    TsetlinMachine tm(small_config(4), 16, 2);
    std::vector<std::uint64_t> literals(tm.literal_words());
    EXPECT_THROW(tm.build_literals(BitVector(8), literals.data()),
                 std::invalid_argument);
    EXPECT_THROW(tm.class_sums(BitVector(8)), std::invalid_argument);
    Dataset ds;
    ds.num_features = 8;
    ds.num_classes = 2;
    EXPECT_THROW(ParallelTrainer().fit(tm, ds), std::invalid_argument);
}

TEST(TsetlinMachine, TaStateAccessorBounds) {
    TsetlinMachine tm(small_config(4), 8, 2);
    EXPECT_THROW(tm.ta_state(2, 0, 0), std::out_of_range);
    EXPECT_THROW(tm.ta_state(0, 4, 0), std::out_of_range);
    EXPECT_THROW(tm.ta_state(0, 0, 16), std::out_of_range);
}

TEST(TsetlinMachine, TypeIIFeedbackRejectsWrongFires) {
    // Unit-level feedback semantics: import a model whose clause fires on
    // every input, then present that input labelled as the *other* class.
    // Type II feedback must push excluded false literals toward include so
    // the clause learns to reject the input.
    TmConfig cfg = small_config(2);  // clause 0 (+), clause 1 (-) per class
    cfg.threshold = 1;               // maximal update probability
    TsetlinMachine tm(cfg, 8, 2);

    TrainedModel m(8, 2, 2);
    m.clause(1, 0).include_pos.set(0);  // class 1's + clause fires when x0=1
    tm.import_model(m);

    BitVector x(8);
    x.set(0);  // x0 = 1, everything else 0
    // Train with target class 0 repeatedly: class 1 is the only possible
    // sampled negative, so its + clause receives Type II feedback.
    fit(tm, single_example(x, 0), 64);

    // Excluded false literals of the offending clause must have moved up.
    bool any_increase = false;
    for (std::size_t f = 1; f < 8; ++f)
        any_increase |= tm.ta_state(1, 0, f) > TsetlinMachine::kIncludeThreshold - 1;
    // Literal ~x1..~x7 (features low) are *true*, so the rejector literals
    // are the plain x1..x7... which are false -> pushed toward include.
    EXPECT_TRUE(any_increase);
}

TEST(TsetlinMachine, TypeIFeedbackReinforcesTruePattern) {
    // T must be high enough that the clamped class sum keeps the feedback
    // probability (T - v)/2T away from zero while the pattern is learnt.
    TmConfig cfg = small_config(2);
    cfg.threshold = 10;
    TsetlinMachine tm(cfg, 8, 2);

    BitVector x(8);
    x.set(2);
    x.set(5);
    fit(tm, single_example(x, 0), 200);

    // Class 0's + clause (clause 0) sees Type I with output 1: true
    // literals (x2, x5 and negated literals of the low features) climb
    // well above the include threshold ...
    EXPECT_GT(tm.ta_state(0, 0, 2), TsetlinMachine::kIncludeThreshold + 16);
    EXPECT_GT(tm.ta_state(0, 0, 5), TsetlinMachine::kIncludeThreshold + 16);
    EXPECT_GT(tm.ta_state(0, 0, 8), TsetlinMachine::kIncludeThreshold);  // ~x0
    // ... while false literals erode toward exclude.
    EXPECT_LT(tm.ta_state(0, 0, 0), TsetlinMachine::kIncludeThreshold - 8);
    EXPECT_LT(tm.ta_state(0, 0, 1), TsetlinMachine::kIncludeThreshold - 8);
    // And the learnt clause now fires only on the trained pattern.
    const auto m = tm.export_model();
    EXPECT_TRUE(m.clause(0, 0).evaluate(x));
    BitVector other(8);
    other.set(3);
    EXPECT_FALSE(m.clause(0, 0).evaluate(other));
}

TEST(TsetlinMachine, NonWordAlignedFeatureCountsTrain) {
    // 70 features exercises the tail-masking path in feedback.
    matador::data::ImageLikeParams p;
    p.width = 10;
    p.height = 7;
    p.num_classes = 2;
    p.examples_per_class = 150;
    p.seed = 31;
    const Dataset ds = matador::data::make_image_like(p);
    TsetlinMachine tm(small_config(16), 70, 2);
    fit(tm, ds, 8);
    EXPECT_GT(tm.evaluate(ds), 0.9);
    // No automaton beyond the feature range may become included: verify by
    // exporting (export only reads valid positions) and checking includes
    // drive correct predictions - plus states of every literal stay sane.
    const TrainedModel m = tm.export_model();
    EXPECT_EQ(m.num_features(), 70u);
}

}  // namespace
