#include "data/dataset.hpp"

#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace matador::data {

void Dataset::add(util::BitVector x, std::uint32_t label) {
    if (x.size() != num_features)
        throw std::runtime_error("Dataset::add: feature size mismatch");
    examples.push_back(std::move(x));
    labels.push_back(label);
}

std::vector<std::size_t> Dataset::class_histogram() const {
    std::vector<std::size_t> h(num_classes, 0);
    for (auto l : labels) h.at(l)++;
    return h;
}

void Dataset::validate() const {
    if (examples.size() != labels.size())
        throw std::runtime_error("Dataset: examples/labels size mismatch");
    for (const auto& x : examples)
        if (x.size() != num_features)
            throw std::runtime_error("Dataset: example with wrong feature count");
    for (auto l : labels)
        if (l >= num_classes) throw std::runtime_error("Dataset: label out of range");
}

void shuffle(Dataset& ds, std::uint64_t seed) {
    util::Xoshiro256ss rng(seed);
    for (std::size_t i = ds.size(); i > 1; --i) {
        const std::size_t j = rng.below(i);
        std::swap(ds.examples[i - 1], ds.examples[j]);
        std::swap(ds.labels[i - 1], ds.labels[j]);
    }
}

Split train_test_split(const Dataset& ds, double train_fraction, std::uint64_t seed) {
    // NaN fails both comparisons, so it is refused with the rest.
    if (!(train_fraction >= 0.0 && train_fraction <= 1.0)) {
        char message[80];
        std::snprintf(message, sizeof message,
                      "train fraction must be in [0, 1], got %g", train_fraction);
        throw std::invalid_argument(message);
    }
    Dataset copy = ds;
    shuffle(copy, seed);
    const auto n_train = std::size_t(double(copy.size()) * train_fraction);

    Split s;
    s.train.name = ds.name + "-train";
    s.test.name = ds.name + "-test";
    for (Dataset* part : {&s.train, &s.test}) {
        part->num_features = ds.num_features;
        part->num_classes = ds.num_classes;
    }
    for (std::size_t i = 0; i < copy.size(); ++i) {
        auto& part = i < n_train ? s.train : s.test;
        part.examples.push_back(std::move(copy.examples[i]));
        part.labels.push_back(copy.labels[i]);
    }
    return s;
}

}  // namespace matador::data
