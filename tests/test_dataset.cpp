#include "data/dataset.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace {

using matador::data::Dataset;
using matador::data::shuffle;
using matador::data::train_test_split;
using matador::util::BitVector;

Dataset small_dataset(std::size_t n) {
    Dataset ds;
    ds.name = "t";
    ds.num_features = 8;
    ds.num_classes = 2;
    for (std::size_t i = 0; i < n; ++i) {
        BitVector x(8);
        x.set(i % 8);
        ds.add(std::move(x), std::uint32_t(i % 2));
    }
    return ds;
}

TEST(Dataset, AddValidatesFeatureWidth) {
    Dataset ds = small_dataset(2);
    EXPECT_THROW(ds.add(BitVector(7), 0), std::runtime_error);
    EXPECT_NO_THROW(ds.add(BitVector(8), 1));
}

TEST(Dataset, ClassHistogram) {
    Dataset ds = small_dataset(10);
    const auto h = ds.class_histogram();
    ASSERT_EQ(h.size(), 2u);
    EXPECT_EQ(h[0], 5u);
    EXPECT_EQ(h[1], 5u);
}

TEST(Dataset, ValidateCatchesBadLabel) {
    Dataset ds = small_dataset(3);
    ds.labels[1] = 9;
    EXPECT_THROW(ds.validate(), std::runtime_error);
}

TEST(Dataset, ValidateCatchesSizeMismatch) {
    Dataset ds = small_dataset(3);
    ds.labels.pop_back();
    EXPECT_THROW(ds.validate(), std::runtime_error);
}

TEST(Shuffle, PreservesPairsAndIsDeterministic) {
    Dataset a = small_dataset(50);
    Dataset b = a;
    shuffle(a, 5);
    shuffle(b, 5);
    EXPECT_EQ(a.examples, b.examples);
    EXPECT_EQ(a.labels, b.labels);
    // labels still match their example (example sets bit label%... our
    // construction: example i sets bit i%8 and label i%2; bit parity of the
    // set bit equals the label parity).
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto bit = a.examples[i].find_first();
        EXPECT_EQ(bit % 2, a.labels[i] % 2);
    }
}

TEST(Shuffle, DifferentSeedsPermuteDifferently) {
    Dataset a = small_dataset(64);
    Dataset b = a;
    shuffle(a, 1);
    shuffle(b, 2);
    EXPECT_NE(a.examples, b.examples);
}

TEST(TrainTestSplit, SizesAndMetadata) {
    Dataset ds = small_dataset(100);
    const auto s = train_test_split(ds, 0.8, 3);
    EXPECT_EQ(s.train.size(), 80u);
    EXPECT_EQ(s.test.size(), 20u);
    EXPECT_EQ(s.train.num_features, 8u);
    EXPECT_EQ(s.test.num_classes, 2u);
    s.train.validate();
    s.test.validate();
}

TEST(TrainTestSplit, DisjointAndComplete) {
    Dataset ds;
    ds.num_features = 32;
    ds.num_classes = 1;
    for (std::size_t i = 0; i < 40; ++i) {
        BitVector x(32);
        // unique pattern per example
        for (std::size_t b = 0; b < 6; ++b)
            if ((i >> b) & 1u) x.set(b);
        ds.add(std::move(x), 0);
    }
    const auto s = train_test_split(ds, 0.5, 7);
    std::size_t total = s.train.size() + s.test.size();
    EXPECT_EQ(total, 40u);
    for (const auto& te : s.test.examples)
        for (const auto& tr : s.train.examples) EXPECT_NE(te, tr);
}

TEST(TrainTestSplit, ExtremeFractions) {
    Dataset ds = small_dataset(10);
    const auto all_train = train_test_split(ds, 1.0, 1);
    EXPECT_EQ(all_train.train.size(), 10u);
    EXPECT_EQ(all_train.test.size(), 0u);
    const auto all_test = train_test_split(ds, 0.0, 1);
    EXPECT_EQ(all_test.train.size(), 0u);
    EXPECT_EQ(all_test.test.size(), 10u);
    for (const double bad : {-0.5, 1.5, std::nan(""), 1e300})
        EXPECT_THROW(train_test_split(ds, bad, 1), std::invalid_argument)
            << bad;
}

}  // namespace
