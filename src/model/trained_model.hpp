// TrainedModel: the boolean artefact a trained Tsetlin Machine reduces to.
//
// After training, each clause is fully described by which literals it
// *includes*: a positive-literal mask (over features x_i) and a
// negative-literal mask (over negated features ~x_i), plus a polarity.
// This is "the TM model" of the paper - a long boolean sequence - and it is
// the sole input of the whole boolean-to-silicon flow: expression export,
// sharing analysis, RTL generation and the architecture simulator all
// consume a TrainedModel, never the training-time automata states.
//
// Inference semantics (matching the generated hardware):
//   clause(x) = AND of included literals;  a clause with no includes
//   outputs 0 (it contributes nothing - the hardware prunes it).
//   class_sum = sum of +polarity clause outputs - sum of -polarity outputs.
//   prediction = argmax over class sums, ties resolved to the lower index.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/bitvector.hpp"

namespace matador::model {

/// One trained clause: include masks over positive and negated literals.
struct Clause {
    util::BitVector include_pos;  ///< over features; bit f => literal x_f included
    util::BitVector include_neg;  ///< over features; bit f => literal ~x_f included
    int polarity = +1;            ///< +1 or -1 vote weight

    /// Number of included literals.
    std::size_t num_includes() const {
        return include_pos.count() + include_neg.count();
    }
    bool empty() const { return num_includes() == 0; }

    /// Evaluate on input x (x.size() == num_features).
    /// Empty clauses output 0 (inference convention).
    bool evaluate(const util::BitVector& x) const;

    /// Evaluate only the literals whose *feature index* lies in [lo, hi) -
    /// the partial clause computed by one Hard Coded Clause Block.
    /// A clause with no includes in range outputs 1 (neutral AND element);
    /// an entirely empty clause still outputs 0 overall via evaluate().
    bool evaluate_partial(const util::BitVector& x, std::size_t lo, std::size_t hi) const;

    bool operator==(const Clause&) const = default;
};

/// A full trained multiclass model.
class TrainedModel {
public:
    TrainedModel() = default;
    TrainedModel(std::size_t num_features, std::size_t num_classes,
                 std::size_t clauses_per_class);

    std::size_t num_features() const { return num_features_; }
    std::size_t num_classes() const { return num_classes_; }
    std::size_t clauses_per_class() const { return clauses_per_class_; }
    std::size_t total_clauses() const { return num_classes_ * clauses_per_class_; }

    /// Clause j of class c (j < clauses_per_class).
    Clause& clause(std::size_t c, std::size_t j);
    const Clause& clause(std::size_t c, std::size_t j) const;

    /// All clauses of class c.
    const std::vector<Clause>& class_clauses(std::size_t c) const { return clauses_[c]; }

    /// Class sums for input x.
    std::vector<int> class_sums(const util::BitVector& x) const;

    /// argmax of class_sums; ties resolve to the lower class index.
    std::uint32_t predict(const util::BitVector& x) const;

    /// Total number of included literals across all clauses.
    std::size_t total_includes() const;
    /// Number of clauses with zero includes.
    std::size_t empty_clauses() const;

    /// Include density: includes / (total_clauses * 2 * features).
    double include_density() const;

    /// Stable 64-bit content hash (dimensions + every clause's polarity and
    /// include masks).  Two models with equal hashes generate identical
    /// hardware; the artifact store keys backend artifacts with it.
    std::uint64_t content_hash() const;

    // -- serialization (the GUI's save / the "yellow" import flow) ---------

    /// Version of the on-disk format written by save().
    static constexpr unsigned kFormatVersion = 1;

    /// Largest header values load() accepts, checked before the model is
    /// sized from them.  The largest shipped models are CIFAR-2's 1,024
    /// features, 2 classes x 1,000 clauses, and flow-mnist's 10 classes x
    /// 500 clauses over 784 features (5,000 clauses, 3.9 million bits per
    /// include mask set).  Each bound is at least 50 times that.  Loading a
    /// header at both product bounds (1,024 features, 256 x 1,024 clauses)
    /// peaks at 93 MB: 64 MB of include masks, the rest clause records.
    /// The per-field bounds also keep the products from overflowing.
    static constexpr std::size_t kMaxFeatures = std::size_t(1) << 20;
    static constexpr std::size_t kMaxClasses = std::size_t(1) << 16;
    static constexpr std::size_t kMaxClausesPerClass = std::size_t(1) << 16;
    /// classes x clauses_per_class.
    static constexpr std::size_t kMaxClauses = std::size_t(1) << 18;
    /// features x classes x clauses_per_class: one include mask set's bits.
    static constexpr std::size_t kMaxIncludeBits = std::size_t(1) << 28;

    /// Plain-text, line-oriented format with a "MATADOR-TM v<N>" header.
    void save(std::ostream& os) const;
    void save_file(const std::string& path) const;

    /// Parse the format written by save(). Throws std::runtime_error with a
    /// clear message on truncated, corrupt, or future-format-version input,
    /// and on a header above the kMax* bounds (naming the field).
    static TrainedModel load(std::istream& is);
    static TrainedModel load_file(const std::string& path);

    bool operator==(const TrainedModel&) const = default;

private:
    std::size_t num_features_ = 0;
    std::size_t num_classes_ = 0;
    std::size_t clauses_per_class_ = 0;
    std::vector<std::vector<Clause>> clauses_;  // [class][clause]
};

}  // namespace matador::model
