#include "data/synthetic.hpp"

#include <gtest/gtest.h>

#include "core/artifact_store.hpp"

namespace {

using namespace matador::data;
using matador::core::dataset_fingerprint;

TEST(ImageLike, ShapeMatchesParams) {
    ImageLikeParams p;
    p.width = 16;
    p.height = 16;
    p.num_classes = 4;
    p.examples_per_class = 20;
    const Dataset ds = make_image_like(p);
    EXPECT_EQ(ds.num_features, 256u);
    EXPECT_EQ(ds.num_classes, 4u);
    EXPECT_EQ(ds.size(), 80u);
    ds.validate();
    const auto h = ds.class_histogram();
    for (auto c : h) EXPECT_EQ(c, 20u);
}

TEST(ImageLike, Deterministic) {
    ImageLikeParams p;
    p.examples_per_class = 10;
    p.seed = 77;
    const Dataset a = make_image_like(p);
    const Dataset b = make_image_like(p);
    EXPECT_EQ(a.examples, b.examples);
    EXPECT_EQ(a.labels, b.labels);
}

TEST(ImageLike, SeedChangesData) {
    ImageLikeParams p;
    p.examples_per_class = 10;
    p.seed = 1;
    const Dataset a = make_image_like(p);
    p.seed = 2;
    const Dataset b = make_image_like(p);
    EXPECT_NE(a.examples, b.examples);
}

TEST(ImageLike, ClassesAreSeparable) {
    // Same-class examples should be closer (Hamming) than cross-class ones.
    ImageLikeParams p;
    p.examples_per_class = 30;
    p.num_classes = 3;
    p.noise = 0.05;
    const Dataset ds = make_image_like(p);
    std::vector<const matador::util::BitVector*> by_class[3];
    for (std::size_t i = 0; i < ds.size(); ++i)
        by_class[ds.labels[i]].push_back(&ds.examples[i]);
    double intra = 0, inter = 0;
    std::size_t ni = 0, nx = 0;
    for (int c = 0; c < 3; ++c) {
        for (std::size_t i = 0; i + 1 < by_class[c].size(); i += 2) {
            intra += double(by_class[c][i]->hamming_distance(*by_class[c][i + 1]));
            ++ni;
        }
        const int d = (c + 1) % 3;
        for (std::size_t i = 0; i < std::min(by_class[c].size(), by_class[d].size());
             i += 2) {
            inter += double(by_class[c][i]->hamming_distance(*by_class[d][i]));
            ++nx;
        }
    }
    EXPECT_LT(intra / double(ni), inter / double(nx));
}

TEST(AudioLike, ShapeMatchesKws6) {
    const Dataset ds = make_kws6_like(15, 3);
    EXPECT_EQ(ds.num_features, 377u);  // 13 bands x 29 frames, as in the paper
    EXPECT_EQ(ds.num_classes, 6u);
    EXPECT_EQ(ds.size(), 90u);
    ds.validate();
}

TEST(NoisyXor, LabelsFollowXorMostly) {
    const Dataset ds = make_noisy_xor(2000, 6, 0.0, 5);
    EXPECT_EQ(ds.num_features, 8u);
    std::size_t agree = 0;
    for (std::size_t i = 0; i < ds.size(); ++i) {
        const bool x = ds.examples[i].get(0) != ds.examples[i].get(1);
        agree += (std::uint32_t(x) == ds.labels[i]);
    }
    EXPECT_EQ(agree, ds.size());  // zero label noise
}

TEST(NoisyXor, NoiseFlipsSomeLabels) {
    const Dataset ds = make_noisy_xor(4000, 2, 0.2, 5);
    std::size_t agree = 0;
    for (std::size_t i = 0; i < ds.size(); ++i) {
        const bool x = ds.examples[i].get(0) != ds.examples[i].get(1);
        agree += (std::uint32_t(x) == ds.labels[i]);
    }
    EXPECT_NEAR(double(agree) / double(ds.size()), 0.8, 0.03);
}

TEST(IrisLike, ShapeAndBalance) {
    const Dataset ds = make_iris_like(40, 4, 9);
    EXPECT_EQ(ds.num_features, 16u);
    EXPECT_EQ(ds.num_classes, 3u);
    EXPECT_EQ(ds.size(), 120u);
    for (auto c : ds.class_histogram()) EXPECT_EQ(c, 40u);
}

TEST(NamedSurrogates, PaperShapes) {
    EXPECT_EQ(make_mnist_like(5).num_features, 784u);
    EXPECT_EQ(make_mnist_like(5).num_classes, 10u);
    EXPECT_EQ(make_kmnist_like(5).num_features, 784u);
    EXPECT_EQ(make_fmnist_like(5).num_features, 784u);
    EXPECT_EQ(make_cifar2_like(5).num_features, 1024u);
    EXPECT_EQ(make_cifar2_like(5).num_classes, 2u);
    EXPECT_EQ(make_kws6_like(5).num_features, 377u);
    EXPECT_EQ(make_kws6_like(5).num_classes, 6u);
}

TEST(NamedSurrogates, NamesAreDistinct) {
    EXPECT_EQ(make_mnist_like(2).name, "mnist-like");
    EXPECT_EQ(make_kmnist_like(2).name, "kmnist-like");
    EXPECT_EQ(make_fmnist_like(2).name, "fmnist-like");
    EXPECT_EQ(make_cifar2_like(2).name, "cifar2-like");
    EXPECT_EQ(make_kws6_like(2).name, "kws6-like");
}

// Every generator's bytes, pinned.  A rewrite of the synthesis loops must
// consume the same draws in the same order, so these values never change;
// a mismatch means every model, design and proof downstream changed too.
TEST(Synthetic, FingerprintsMatchRecordedValues) {
    EXPECT_EQ(dataset_fingerprint(make_mnist_like(30, 11)), 0xa6ac88d5a8e4e79du);
    EXPECT_EQ(dataset_fingerprint(make_kmnist_like(30, 11)), 0x2403188701bc67c9u);
    EXPECT_EQ(dataset_fingerprint(make_fmnist_like(30, 11)), 0x40692ae0dbe5a0d2u);
    EXPECT_EQ(dataset_fingerprint(make_cifar2_like(30, 11)), 0xe6402be5ca26243fu);
    EXPECT_EQ(dataset_fingerprint(make_kws6_like(40, 15)), 0xc32e48ac61614e0eu);
    EXPECT_EQ(dataset_fingerprint(make_noisy_xor(200, 10, 0.02, 7)), 0x6d1662d08c278a66u);
    EXPECT_EQ(dataset_fingerprint(make_iris_like(20, 4, 5)), 0x87c84cf1909aa8feu);

    const auto image = [](std::size_t width, std::size_t height, std::size_t classes,
                          std::size_t per_class, std::size_t max_shift,
                          std::uint64_t seed) {
        ImageLikeParams p;
        p.width = width;
        p.height = height;
        p.num_classes = classes;
        p.examples_per_class = per_class;
        p.max_shift = max_shift;
        p.seed = seed;
        return dataset_fingerprint(make_image_like(p));
    };
    // Rows straddle word boundaries (100 bits wide).
    EXPECT_EQ(image(100, 5, 3, 20, 3, 21), 0x967fb7c79905fa7eu);
    // Shifts reach past the whole row and column.
    EXPECT_EQ(image(10, 7, 3, 20, 12, 22), 0x3032a4abb80df682u);
    // Each row is exactly one word.
    EXPECT_EQ(image(64, 3, 2, 20, 2, 23), 0x12c09edb610c6de0u);

    AudioLikeParams a;
    a.bands = 13;
    a.frames = 5;
    a.num_classes = 3;
    a.examples_per_class = 20;
    a.max_frame_shift = 7;
    a.seed = 24;
    EXPECT_EQ(dataset_fingerprint(make_audio_like(a)), 0x4bb1d439b79c0002u);
}

}  // namespace
