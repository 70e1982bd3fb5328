#include "model/trained_model.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace {

using matador::model::Clause;
using matador::model::TrainedModel;
using matador::util::BitVector;

TrainedModel tiny_model() {
    // 8 features, 2 classes, 4 clauses/class.
    TrainedModel m(8, 2, 4);
    // class 0, clause 0 (+): x0 & ~x3
    m.clause(0, 0).include_pos.set(0);
    m.clause(0, 0).include_neg.set(3);
    // class 0, clause 1 (-): x1
    m.clause(0, 1).include_pos.set(1);
    // class 1, clause 0 (+): ~x0
    m.clause(1, 0).include_neg.set(0);
    // class 1, clause 2 (+): x3 & x4
    m.clause(1, 2).include_pos.set(3);
    m.clause(1, 2).include_pos.set(4);
    return m;
}

TEST(Clause, EvaluateSemantics) {
    Clause c;
    c.include_pos = BitVector(8);
    c.include_neg = BitVector(8);
    // Empty clause: 0 in inference.
    EXPECT_FALSE(c.evaluate(BitVector::from_string("11111111")));

    c.include_pos.set(0);
    c.include_neg.set(3);
    EXPECT_TRUE(c.evaluate(BitVector::from_string("10000000")));
    EXPECT_FALSE(c.evaluate(BitVector::from_string("00000000")));  // x0 low
    EXPECT_FALSE(c.evaluate(BitVector::from_string("10010000")));  // x3 high
}

TEST(Clause, PartialEvaluationIsNeutralOutOfRange) {
    Clause c;
    c.include_pos = BitVector(8);
    c.include_neg = BitVector(8);
    c.include_pos.set(5);
    const auto x = BitVector::from_string("00000000");
    EXPECT_TRUE(c.evaluate_partial(x, 0, 4));   // no includes in [0,4)
    EXPECT_FALSE(c.evaluate_partial(x, 4, 8));  // x5 = 0 violates include
}

TEST(Clause, PartialProductEqualsFull) {
    Clause c;
    c.include_pos = BitVector(8);
    c.include_neg = BitVector(8);
    c.include_pos.set(1);
    c.include_neg.set(6);
    for (int pattern = 0; pattern < 256; ++pattern) {
        BitVector x(8);
        for (int b = 0; b < 8; ++b)
            if ((pattern >> b) & 1) x.set(std::size_t(b));
        const bool full = c.evaluate(x);
        const bool partial =
            c.evaluate_partial(x, 0, 4) && c.evaluate_partial(x, 4, 8);
        EXPECT_EQ(full, partial);  // non-empty clause: chain of partials
    }
}

TEST(TrainedModel, PolarityAlternates) {
    const TrainedModel m(4, 2, 6);
    for (std::size_t j = 0; j < 6; ++j)
        EXPECT_EQ(m.clause(0, j).polarity, j % 2 == 0 ? 1 : -1);
}

TEST(TrainedModel, ClassSumsAndPredict) {
    const TrainedModel m = tiny_model();
    // x = 10000000: class0 gets +1 (clause0 fires), class1: ~x0 fails -> 0.
    const auto x = BitVector::from_string("10000000");
    const auto sums = m.class_sums(x);
    EXPECT_EQ(sums[0], 1);
    EXPECT_EQ(sums[1], 0);
    EXPECT_EQ(m.predict(x), 0u);
}

TEST(TrainedModel, NegativePolarityVotesSubtract) {
    const TrainedModel m = tiny_model();
    // x = 11000000: class0 clause0 (+) fires, clause1 (-) fires -> 0.
    const auto x = BitVector::from_string("11000000");
    EXPECT_EQ(m.class_sums(x)[0], 0);
}

TEST(TrainedModel, PredictTieGoesToLowerIndex) {
    TrainedModel m(4, 3, 2);  // all clauses empty -> all sums 0
    EXPECT_EQ(m.predict(BitVector(4)), 0u);
}

TEST(TrainedModel, CountingHelpers) {
    const TrainedModel m = tiny_model();
    EXPECT_EQ(m.total_clauses(), 8u);
    EXPECT_EQ(m.total_includes(), 6u);
    EXPECT_EQ(m.empty_clauses(), 4u);
    EXPECT_NEAR(m.include_density(), 6.0 / (8 * 2 * 8), 1e-12);
}

TEST(TrainedModel, SaveLoadRoundTrip) {
    const TrainedModel m = tiny_model();
    std::stringstream ss;
    m.save(ss);
    const TrainedModel m2 = TrainedModel::load(ss);
    EXPECT_EQ(m, m2);
}

TEST(TrainedModel, LoadRejectsBadMagic) {
    std::stringstream ss("NOT-A-MODEL\n");
    EXPECT_THROW(TrainedModel::load(ss), std::runtime_error);
}

TEST(TrainedModel, LoadRejectsTruncated) {
    const TrainedModel m = tiny_model();
    std::stringstream ss;
    m.save(ss);
    std::string text = ss.str();
    text.resize(text.size() - 5);  // chop off "end\n"
    std::stringstream cut(text);
    EXPECT_THROW(TrainedModel::load(cut), std::runtime_error);
}

TEST(TrainedModel, LoadRejectsOutOfRangeIndices) {
    std::stringstream ss(
        "MATADOR-TM v1\nfeatures 4\nclasses 1\nclauses_per_class 2\n"
        "clause 0 0 1 pos 9 neg\nend\n");
    EXPECT_THROW(TrainedModel::load(ss), std::runtime_error);
}

TEST(TrainedModel, LoadRejectsFutureFormatVersionWithClearMessage) {
    const TrainedModel m = tiny_model();
    std::stringstream ss;
    m.save(ss);
    std::string text = ss.str();
    const auto header_end = text.find('\n');
    text.replace(0, header_end, "MATADOR-TM v99");
    std::stringstream future(text);
    try {
        TrainedModel::load(future);
        FAIL() << "future-version file must not load";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("v99"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("not supported"), std::string::npos)
            << e.what();
    }
}

TEST(TrainedModel, LoadRejectsCorruptVersionHeader) {
    std::stringstream garbage("MATADOR-TM vABC\nfeatures 4\n");
    EXPECT_THROW(TrainedModel::load(garbage), std::runtime_error);
    std::stringstream empty("");
    EXPECT_THROW(TrainedModel::load(empty), std::runtime_error);
}

TEST(TrainedModel, LoadRejectsCorruptClauseData) {
    // A literal token that is not a number must raise a clear error, not
    // silently produce garbage include masks.
    std::stringstream ss(
        "MATADOR-TM v1\nfeatures 4\nclasses 1\nclauses_per_class 2\n"
        "clause 0 0 1 pos 2x neg\nend\n");
    EXPECT_THROW(TrainedModel::load(ss), std::runtime_error);
}

TEST(TrainedModel, LoadRejectsPolarityItsIndexDoesNotImply) {
    // Even clauses vote +1 and odd ones -1 everywhere a model is used (the
    // trainer, the batched engine, the RTL class sum); a file that says
    // otherwise is refused rather than voted two ways.
    const auto load = [](std::size_t j, int polarity) {
        std::stringstream ss("MATADOR-TM v1\nfeatures 4\nclasses 1\nclauses_per_class 2\n"
                             "clause 0 " + std::to_string(j) + " " +
                             std::to_string(polarity) + " pos 1 neg 2\nend\n");
        return TrainedModel::load(ss);
    };
    for (const int polarity : {3, 0, -1})
        EXPECT_THROW(load(0, polarity), std::runtime_error) << polarity;
    EXPECT_THROW(load(1, 1), std::runtime_error);
    EXPECT_EQ(load(0, 1).clause(0, 0).polarity, 1);
    EXPECT_EQ(load(1, -1).clause(0, 1).polarity, -1);
}

TEST(TrainedModel, ContentHashTracksContent) {
    const TrainedModel a = tiny_model();
    TrainedModel b = tiny_model();
    EXPECT_EQ(a.content_hash(), b.content_hash());

    b.clause(0, 0).include_pos.set(5);
    EXPECT_NE(a.content_hash(), b.content_hash());

    TrainedModel c = tiny_model();
    c.clause(0, 0).polarity = -1;
    EXPECT_NE(a.content_hash(), c.content_hash());

    // Shape differences hash differently even with no includes anywhere.
    EXPECT_NE(TrainedModel(8, 2, 4).content_hash(),
              TrainedModel(8, 4, 2).content_hash());
}

TEST(TrainedModel, SaveIsStableText) {
    const TrainedModel m = tiny_model();
    std::stringstream a, b;
    m.save(a);
    m.save(b);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_NE(a.str().find("MATADOR-TM v1"), std::string::npos);
}

}  // namespace
