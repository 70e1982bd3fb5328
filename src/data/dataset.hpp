// Boolean classification dataset container + split/shuffle utilities.
//
// MATADOR consumes *booleanized* data: every datapoint is a BitVector of
// `num_features` bits plus an integer label.  Raw (real-valued) data enters
// through the booleanizers in booleanizer.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bitvector.hpp"
#include "util/rng.hpp"

namespace matador::data {

/// A booleanized, labelled classification dataset.
struct Dataset {
    std::string name;                       ///< human-readable identifier
    std::size_t num_features = 0;           ///< bits per datapoint
    std::size_t num_classes = 0;            ///< label range is [0, num_classes)
    std::vector<util::BitVector> examples;  ///< each of size num_features
    std::vector<std::uint32_t> labels;      ///< parallel to examples

    std::size_t size() const { return examples.size(); }

    /// Append one example (x.size() must equal num_features).
    void add(util::BitVector x, std::uint32_t label);

    /// Per-class example counts.
    std::vector<std::size_t> class_histogram() const;

    /// Throws std::runtime_error if any invariant is broken
    /// (feature-size mismatch, label out of range, size mismatch).
    void validate() const;
};

/// Train/test split of a dataset.
struct Split {
    Dataset train;
    Dataset test;
};

/// Shuffle examples and labels together with the given seed.
void shuffle(Dataset& ds, std::uint64_t seed);

/// Split into train/test with `train_fraction` of examples in train
/// (after an internal shuffle with `seed`).  Throws std::invalid_argument
/// unless `train_fraction` is in [0, 1].
Split train_test_split(const Dataset& ds, double train_fraction, std::uint64_t seed);

}  // namespace matador::data
